(* The repository benchmark.

     perfbench/run.sh --workload suite_cold --seed 0 --seconds 25 --trace 0

   With [--trace 0] the last stdout line is a JSON object holding every
   end-to-end metric; with [--trace 1] it holds every per-layer metric
   from a separate traced pass.  Progress and summaries go to stderr.
   See README.md for what each workload and metric measures. *)

open Common

(* The metric names and units come from BENCHMARK.json at the checkout
   root, the declaration results are judged against: one list, read,
   not restated here. *)
let declared key =
  let path = "BENCHMARK.json" in
  let fail msg = failwith (Printf.sprintf "%s: %s" path msg) in
  let json =
    match Report.parse (In_channel.with_open_bin path In_channel.input_all) with
    | Ok j -> j
    | Error msg -> fail msg
  in
  match Option.bind (Report.member key json) Report.to_list with
  | None -> fail ("no " ^ key ^ " list")
  | Some l ->
      List.map
        (fun e ->
          match
            ( Option.bind (Report.member "name" e) Report.to_string,
              Option.bind (Report.member "unit" e) Report.to_string )
          with
          | Some name, Some unit_ -> (name, unit_)
          | _ -> fail (key ^ " entry without name or unit"))
        l

let workloads = [ "suite_cold"; "loops_ff"; "serve_open" ]

let usage () =
  prerr_endline
    "usage: perfbench --workload (suite_cold|loops_ff|serve_open) --seed N --seconds S \
     --trace (0|1)";
  exit 2

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec parse acc = function
    | [] -> acc
    | key :: value :: rest when String.length key > 2 && String.sub key 0 2 = "--" ->
        parse ((String.sub key 2 (String.length key - 2), value) :: acc) rest
    | _ -> usage ()
  in
  let opts = parse [] args in
  let get k = match List.assoc_opt k opts with Some v -> v | None -> usage () in
  let int_of k = match int_of_string_opt (get k) with Some n -> n | None -> usage () in
  let workload = get "workload" in
  let seed = int_of "seed" in
  let seconds = int_of "seconds" in
  let trace = int_of "trace" in
  if (not (List.mem workload workloads)) || seconds < 1 || (trace <> 0 && trace <> 1) then usage ();
  (* fail before any work if the declaration is unreadable *)
  ignore (declared "end_to_end");
  ignore (declared "per_layer");
  if not (Sys.file_exists cli) then begin
    log "%s is missing: build it first (perfbench/run.sh does)" cli;
    exit 1
  end;
  (* Every run must end within 180 s: past 170 s, stop the daemon and
     fail without printing a result. *)
  ignore
    (Thread.create
       (fun () ->
         Thread.delay 170.0;
         log "run exceeded 170 s; giving up";
         Option.iter
           (fun pid ->
             try
               Unix.kill pid Sys.sigkill;
               ignore (Unix.waitpid [] pid)
             with Unix.Unix_error _ -> ())
           !Serve_open.live;
         exit 3)
       ());
  let t0 = now () in
  let tally, metrics =
    if trace = 0 then
      let tally, ms =
        match workload with
        | "suite_cold" -> Suite_cold.run ~seed ~seconds:(float_of_int seconds)
        | "loops_ff" -> Loops_ff.run ~seed ~seconds:(float_of_int seconds)
        | _ -> Serve_open.run ~seed ~seconds:(float_of_int seconds)
      in
      let metrics =
        List.map
          (fun (name, unit_) ->
            match List.find_opt (fun x -> x.name = name) ms with
            | Some x when x.unit_ = unit_ -> x
            | Some x -> failwith (Printf.sprintf "%s measured in %s, declared in %s" name x.unit_ unit_)
            | None -> failwith ("workload did not measure " ^ name))
          (declared "end_to_end")
      in
      (tally, metrics)
    else
      let tally, values =
        match workload with
        | "suite_cold" -> Suite_cold.run_traced ~seed
        | "loops_ff" -> Loops_ff.run_traced ~seed
        | _ -> Serve_open.run_traced ~seed ~seconds:(float_of_int seconds)
      in
      let per_layer = declared "per_layer" in
      List.iter
        (fun (name, _) ->
          if not (List.mem_assoc name per_layer) then failwith ("undeclared layer metric " ^ name))
        values;
      ( tally,
        List.map
          (fun (name, unit_) ->
            m name unit_ (Option.value ~default:0.0 (List.assoc_opt name values)))
          per_layer )
  in
  List.iter (fun x -> log "%-32s %14.6g %s" x.name x.value x.unit_) metrics;
  log "%s seed %d done in %.1f s: %d ops attempted, %d failed" workload seed (now () -. t0)
    tally.attempted tally.failed;
  print_endline (result_line tally metrics)
