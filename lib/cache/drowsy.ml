type t = {
  geometry : Geometry.t;
  window : int;
  last_access : int array;  (** -1 = never accessed (always drowsy) *)
  mutable accounted_awake : int;
      (** awake line-ticks accumulated for completed inter-access gaps *)
  mutable recorder : (int -> unit) option;
      (** observes every increment of [accounted_awake] — the
          fast-forward engine records one iteration's increments and
          replays them with {!replay_awake} *)
  probe : Wp_obs.Probe.t option;
}

let create ?probe geometry ~window =
  if window <= 0 then invalid_arg "Drowsy.create: window must be positive";
  {
    geometry;
    window;
    last_access = Array.make (Geometry.lines geometry) (-1);
    accounted_awake = 0;
    recorder = None;
    probe;
  }

let window t = t.window
let set_recorder t r = t.recorder <- r
let index t ~set ~way = (set * t.geometry.Geometry.assoc) + way

let note_access t ~now ~set ~way =
  let i = index t ~set ~way in
  let last = t.last_access.(i) in
  t.last_access.(i) <- now;
  let wake =
    if last < 0 then true (* first touch: the line was asleep *)
    else begin
      let gap = now - last in
      (* The line stayed awake for min(gap, window) of the gap — int
         comparison, not Stdlib.min (polymorphic compare) on this
         per-access path. *)
      let awake = if gap < t.window then gap else t.window in
      t.accounted_awake <- t.accounted_awake + awake;
      (match t.recorder with None -> () | Some r -> r awake);
      gap > t.window
    end
  in
  (match t.probe with
  | None -> ()
  | Some p -> if wake then p Wp_obs.Probe.Drowsy_wake);
  wake

let awake_line_ticks t ~now =
  (* Completed gaps plus the open tail of every touched line. *)
  let tail = ref 0 in
  Array.iter
    (fun last ->
      if last >= 0 then begin
        let gap = now - last in
        tail := !tail + if gap < t.window then gap else t.window
      end)
    t.last_access;
  float_of_int (t.accounted_awake + !tail)

let total_line_ticks t ~now =
  float_of_int (Geometry.lines t.geometry) *. float_of_int now

(* Canonical fingerprint of the wake state at tick [now]: each line's
   inter-access gap, capped at [window + 1].  Gaps at most [window]
   behave distinctly (they determine the next awake increment), while
   every gap beyond the window is behaviourally identical — the line is
   asleep, the next touch wakes it and credits exactly [window] awake
   ticks — so all of them canonicalise to the same value.  [-1] marks a
   never-touched line.  [accounted_awake] is a write-only accumulator
   (read only at finalisation) and is deliberately excluded. *)
let fingerprint t ~now ~add =
  let cap = t.window + 1 in
  Array.iter
    (fun last ->
      if last < 0 then add (-1)
      else begin
        let gap = now - last in
        add (if gap < cap then gap else cap)
      end)
    t.last_access

(* After fast-forwarding, shift the raw timestamp of every line touched
   since tick [since] forward by [delta]: those lines would have been
   re-touched at the same relative position in the last skipped
   iteration, so this makes the raw state exactly equal to a full
   replay's.  Untouched lines keep their timestamps (a replay would not
   have touched them either). *)
let advance_touched t ~since ~delta =
  let a = t.last_access in
  for i = 0 to Array.length a - 1 do
    if a.(i) >= since then a.(i) <- a.(i) + delta
  done

(* [iters] repetitions of a recorded iteration's awake increments:
   integer sums, so exactly what the [note_access] calls would add. *)
let replay_awake t a ~len ~iters =
  let sum = ref 0 in
  for j = 0 to len - 1 do
    sum := !sum + a.(j)
  done;
  t.accounted_awake <- t.accounted_awake + (iters * !sum)

(* Re-express every touched line's timestamp on a new clock so that its
   inter-access gap — the only behaviourally relevant quantity — is
   preserved across the handover.  Gaps are first canonicalised to
   [window + 1] (every larger gap is behaviourally identical: asleep,
   next touch wakes and credits [window] ticks).  A gap that reaches
   past the new clock's origin cannot be represented as a non-negative
   timestamp; the line's completed awake portion is accounted
   immediately and the line reverts to never-touched, which a
   subsequent access treats exactly like any other sleeping line. *)
let rebase t ~old_now ~new_now =
  let cap = t.window + 1 in
  let a = t.last_access in
  for i = 0 to Array.length a - 1 do
    let last = a.(i) in
    if last >= 0 then begin
      let gap = old_now - last in
      let gap = if gap < cap then gap else cap in
      let last' = new_now - gap in
      if last' >= 0 then a.(i) <- last'
      else begin
        let awake = if gap < t.window then gap else t.window in
        t.accounted_awake <- t.accounted_awake + awake;
        (match t.recorder with None -> () | Some r -> r awake);
        a.(i) <- -1
      end
    end
  done

(* Put every line to sleep at tick [now]: close each touched line's
   open awake tail into the accumulator and mark the line
   never-touched.  Models a policy that drops all lines drowsy at a
   context switch. *)
let sleep_all t ~now =
  let a = t.last_access in
  for i = 0 to Array.length a - 1 do
    let last = a.(i) in
    if last >= 0 then begin
      let gap = now - last in
      let awake = if gap < t.window then gap else t.window in
      t.accounted_awake <- t.accounted_awake + awake;
      (match t.recorder with None -> () | Some r -> r awake);
      a.(i) <- -1
    end
  done

let reset t =
  Array.fill t.last_access 0 (Array.length t.last_access) (-1);
  t.accounted_awake <- 0
