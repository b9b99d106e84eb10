type coverage = All_placed | Half_placed | None_placed

type proc = {
  pname : string;
  spec : Wp_workloads.Spec.t;
  placed : bool;
  priority : int;
}

type t = proc list

let coverage_name = function
  | All_placed -> "all"
  | Half_placed -> "half"
  | None_placed -> "none"

let coverage_of_string = function
  | "all" -> Ok All_placed
  | "half" -> Ok Half_placed
  | "none" -> Ok None_placed
  | s -> Error (Printf.sprintf "unknown coverage %S (all|half|none)" s)

let apply_coverage cov t =
  List.mapi
    (fun i p ->
      let placed =
        match cov with
        | All_placed -> true
        | None_placed -> false
        | Half_placed -> i mod 2 = 0
      in
      { p with placed })
    t

let of_specs ?(coverage = All_placed) specs =
  apply_coverage coverage
    (List.map
       (fun (spec : Wp_workloads.Spec.t) ->
         { pname = spec.Wp_workloads.Spec.name; spec; placed = true; priority = 0 })
       specs)

let of_names ?coverage names =
  let rec specs acc = function
    | [] -> Ok (List.rev acc)
    | name :: rest -> (
        match
          List.find_opt
            (fun (s : Wp_workloads.Spec.t) -> s.Wp_workloads.Spec.name = name)
            (Wp_workloads.Mibench.all @ Wp_workloads.Mibench.loops)
        with
        | Some spec -> specs (spec :: acc) rest
        | None ->
            Error
              (Printf.sprintf "unknown benchmark %S (known: %s)" name
                 (String.concat ", "
                    (Wp_workloads.Mibench.names
                    @ Wp_workloads.Mibench.loop_names))))
  in
  Result.map (of_specs ?coverage) (specs [] names)

let validate t =
  if t = [] then Error "empty mix"
  else
    let rec go i = function
      | [] -> Ok ()
      | p :: rest -> (
          match Wp_workloads.Spec.validate p.spec with
          | Error msg -> Error (Printf.sprintf "process %d: %s" i msg)
          | Ok () -> go (i + 1) rest)
    in
    go 0 t

let pp ppf t =
  Format.fprintf ppf "@[<v>";
  List.iteri
    (fun i p ->
      Format.fprintf ppf "p%d %-12s %s prio %d (%a)@," i p.pname
        (if p.placed then "placed  " else "unplaced")
        p.priority Wp_workloads.Spec.pp p.spec)
    t;
  Format.fprintf ppf "@]"

(* A random mix is 2-4 random specs (with trimmed trace budgets, so a
   whole multiprogrammed run still simulates quickly) plus per-process
   placement flags and priorities. *)
let generate rng ~name =
  let n = Wp_workloads.Rng.int_in rng ~min:2 ~max:4 in
  List.init n (fun i ->
      let spec =
        Wp_workloads.Spec.random rng ~name:(Printf.sprintf "%s.p%d" name i)
      in
      let spec =
        {
          spec with
          Wp_workloads.Spec.trace_blocks_large =
            max 40 (spec.Wp_workloads.Spec.trace_blocks_large / 3);
          trace_blocks_small =
            max 20 (spec.Wp_workloads.Spec.trace_blocks_small / 3);
        }
      in
      let placed = Wp_workloads.Rng.int rng 4 > 0 (* 3 in 4 way-placed *) in
      let priority = Wp_workloads.Rng.int_in rng ~min:0 ~max:2 in
      { pname = spec.Wp_workloads.Spec.name; spec; placed; priority })

let of_seed seed =
  let mix =
    generate (Wp_workloads.Rng.create seed) ~name:(Printf.sprintf "mix%d" seed)
  in
  (match validate mix with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Mix.of_seed: generated invalid mix: " ^ msg));
  mix

let parse ~mix ~coverage =
  let ( let* ) = Result.bind in
  let* base =
    let prefix = "random:" in
    let plen = String.length prefix in
    if String.length mix > plen && String.sub mix 0 plen = prefix then
      match int_of_string_opt (String.sub mix plen (String.length mix - plen)) with
      | Some seed -> Ok (of_seed seed)
      | None ->
          Error (Printf.sprintf "bad mix %S: random: needs an integer seed" mix)
    else
      of_names
        (String.split_on_char ',' mix
        |> List.map String.trim
        |> List.filter (fun s -> s <> ""))
  in
  match coverage with
  | "mix" -> Ok base
  | c ->
      let* c = coverage_of_string c in
      Ok (apply_coverage c base)
