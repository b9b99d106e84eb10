(* Host-speed normalisation.

   The benchmark runs on shared machines whose speed drifts by tens of
   percent over minutes, which would swamp the differences a benchmark
   exists to show.  A fixed calibration kernel — code of this file
   only, so no change to the system under test can speed it up or slow
   it down — is timed between the measured ops, and every measured
   time of the run is rescaled by how fast the kernel ran:

     normalised = measured * (nominal_s / mean kernel time of the run) ^ exponent

   i.e. reported in seconds of a host on which the kernel takes exactly
   [nominal_s].  A host slowdown lengthens the ops and the kernel alike
   and cancels out; a change to the system moves the ops only.  The
   factor is one per run: single kernel samples fluctuate at sub-second
   scale independently of the ops, so only the run's mean tracks the
   drift the ops share. *)

let nominal_s = 0.005

(* The kernel reacts to the host's state more strongly than the
   simulator does: over 30 runs of the three workloads on a drifting
   2-core host, op times scaled as the kernel time to the power 0.72 to
   0.93 (log-log slope), and rescaling by this power left the least
   run-to-run spread. *)
let exponent = 0.8

let table = Array.init 65536 (fun i -> (i * 7919) land 0xffff)

(* Strided reads over a 512 KiB table plus short-lived allocation: the
   mix of cache traffic, integer work and minor collections the
   simulator itself is made of. *)
let kernel () =
  let t0 = Unix.gettimeofday () in
  let s = ref 0 in
  for r = 1 to 40 do
    for i = 0 to 65535 do
      s := !s + table.((i * r) land 0xffff)
    done;
    ignore (Sys.opaque_identity (List.init 200 (fun i -> i + !s)))
  done;
  Unix.gettimeofday () -. t0

type t = { mutable samples : float list  (** kernel seconds, newest first *) }

let create () = { samples = [] }

let sample t = t.samples <- kernel () :: t.samples
let add t d = t.samples <- d :: t.samples

(* The factor that turns a measured duration into nominal-host
   seconds; 1.0 with no samples. *)
let factor t =
  match t.samples with
  | [] -> 1.0
  | l -> (nominal_s /. (List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l))) ** exponent

(* Mean kernel time over all samples, in ms: the host speed of the run. *)
let mean_ms t =
  match t.samples with
  | [] -> 0.0
  | l -> 1000.0 *. List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l)
