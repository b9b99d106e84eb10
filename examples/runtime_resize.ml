(* Runtime way-placement area resizing — the OS knob of Section 4.1:
   "the operating system [can] choose the best sized way-placement
   area either on a static or per-program basis, even adjusting it
   during program execution."

   The OS here starts a program with a generous 16KB area, decides
   midway that the I-TLB way-placement bits should cover fewer pages,
   and shrinks the area to 2KB — paying one cache flush for the switch.
   One compiled layout serves both sizes; no recompilation happens.

   Run with:  dune exec examples/runtime_resize.exe [-- benchmark]     *)

module Config = Wayplace.Sim.Config
module Stats = Wayplace.Sim.Stats
module Simulator = Wayplace.Sim.Simulator

let () =
  let name = if Array.length Sys.argv > 1 then Sys.argv.(1) else "susan_c" in
  let spec =
    try Wayplace.Workloads.Mibench.find name
    with Not_found ->
      Format.eprintf "unknown benchmark %s@." name;
      exit 1
  in
  let program = Wayplace.Workloads.Codegen.generate spec in
  let profile =
    Wayplace.Workloads.Tracer.profile program Wayplace.Workloads.Tracer.Small
  in
  let compiled = Wayplace.compile program.Wayplace.Workloads.Codegen.graph profile in
  let trace = Wayplace.Workloads.Tracer.trace program Wayplace.Workloads.Tracer.Large in
  let layout = compiled.Wayplace.layout in
  let config area = Wayplace.paper_machine (Config.Way_placement { area_bytes = area * 1024 }) in

  let static area =
    Simulator.run ~config:(config area) ~program ~layout ~trace
  in
  let half = Array.length trace.Wayplace.Workloads.Tracer.blocks / 2 in
  let resized =
    Simulator.run_with_resizes
      ~schedule:[ (half, 2 * 1024) ]
      ~config:(config 16) ~program ~layout ~trace
  in
  let report label stats =
    Format.printf "%-22s %a@." label Stats.pp_brief stats
  in
  report "static 16KB area:" (static 16);
  report "static 2KB area:" (static 2);
  report "16KB -> 2KB midway:" resized;
  Format.printf
    "@.The resized run lands between the two static points: the second half@.\
     runs with 2KB worth of way-placed pages, after a one-off flush whose@.\
     refills are visible in the miss rate.@.";

  (* The same resized run, observed: a sampler on the probe bus windows
     the event stream, and the resize/flush markers land in the window
     where the OS acted.  (The CLI equivalent:
       wayplace_cli timeline -b susan_c -s wayplace \
         --resize <half>:2 --window 50000 --chrome resize.trace.json
     — the Chrome file opens in chrome://tracing or Perfetto.) *)
  let module S = Wayplace.Obs.Sampler in
  let sampler = S.create ~window_cycles:50_000 () in
  let (_ : Stats.t) =
    Simulator.run_compiled ~probe:(S.probe sampler)
      ~schedule:[ (half, 2 * 1024) ]
      ~config:(config 16) ~trace
      (Wayplace.Sim.Compiled_trace.make ~program ~layout)
  in
  let windows = S.finish sampler in
  Format.printf "@.timeline (50k-cycle windows):@.";
  List.iter
    (fun (w : S.window) ->
      let markers =
        match w.S.markers with
        | [] -> ""
        | ms ->
            "  <- "
            ^ String.concat ", "
                (List.map
                   (function
                     | S.Resize { area_bytes; _ } ->
                         Printf.sprintf "resize to %dKB" (area_bytes / 1024)
                     | S.Flush _ -> "flush"
                     | S.Switch { next; _ } ->
                         Printf.sprintf "switch to p%d" next)
                   ms)
      in
      Format.printf "  window %2d  ipc %5.3f  i-misses %4d%s@." w.S.index
        (S.ipc w)
        (S.get w S.Counter.Icache_misses)
        markers)
    windows
