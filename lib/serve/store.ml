module Stats = Wp_sim.Stats

(* The header names the [Stats.t] layout: unmarshalling a payload of
   another layout is undefined behaviour, not a catchable error, so an
   entry written by a build with different fields must never reach
   [Marshal.from_string].  Any layout change changes the header. *)
let magic =
  Printf.sprintf "wpstore-%s\n"
    (String.sub (Digest.to_hex (Digest.string Stats.layout)) 0 16)

type t = {
  dir : string option;
  lock : Mutex.t;  (** guards [table] *)
  table : (string, Stats.t) Hashtbl.t;
  evictions : int Atomic.t;
  write_failures : int Atomic.t;
}

(* Temporary-file sequence number, shared by every store in the
   process: with the pid it makes each temporary name unique, even when
   two stores on one directory write the same key at once. *)
let tmp_counter = Atomic.make 0

let create ?dir () =
  let ready =
    match dir with
    | None -> Ok ()
    | Some d -> (
        let make () =
          if not (Sys.file_exists d) then Unix.mkdir d 0o755;
          if not (Sys.is_directory d) then
            Error (Printf.sprintf "store path %S is not a directory" d)
          else begin
            (* probe writability up front so the daemon fails at startup,
               not on its first computed result *)
            let probe = Filename.concat d ".wp-probe" in
            let oc = open_out probe in
            close_out oc;
            Sys.remove probe;
            Ok ()
          end
        in
        match make () with
        | r -> r
        | exception Unix.Unix_error (e, _, _) ->
            Error (Printf.sprintf "store directory %S: %s" d (Unix.error_message e))
        | exception Sys_error msg -> Error msg)
  in
  match ready with
  | Error _ as e -> e
  | Ok () ->
      Ok
        {
          dir;
          lock = Mutex.create ();
          table = Hashtbl.create 256;
          evictions = Atomic.make 0;
          write_failures = Atomic.make 0;
        }

let dir t = t.dir

let key ~program ~order ~config =
  Digest.to_hex (Digest.string (Marshal.to_string (program, order, config) []))

let stats_digest stats = Digest.to_hex (Digest.string (Marshal.to_string stats []))

(* Only content-address hex digests are ever used as keys, so the key
   doubles as a safe file name; reject anything else defensively
   rather than let a crafted key escape the store directory. *)
let valid_key k =
  String.length k = 32
  && String.for_all
       (function '0' .. '9' | 'a' .. 'f' -> true | _ -> false)
       k

let entry_path dir k = Filename.concat dir k

let read_file path =
  match open_in_bin path with
  | exception Sys_error _ -> None
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () ->
          match really_input_string ic (in_channel_length ic) with
          | s -> Some s
          | exception End_of_file -> None)

(* Decode one disk entry; any defect — wrong magic, short header,
   digest mismatch, unmarshalable payload — is [None]. *)
let decode_entry contents =
  let mlen = String.length magic in
  let dlen = 16 in
  if String.length contents < mlen + dlen then None
  else if String.sub contents 0 mlen <> magic then None
  else begin
    let digest = String.sub contents mlen dlen in
    let payload = String.sub contents (mlen + dlen) (String.length contents - mlen - dlen) in
    if Digest.string payload <> digest then None
    else
      match (Marshal.from_string payload 0 : Stats.t) with
      | stats -> Some stats
      | exception _ -> None
  end

let load_disk t k =
  match t.dir with
  | None -> None
  | Some d when valid_key k -> (
      let path = entry_path d k in
      if not (Sys.file_exists path) then None
      else
        match Option.bind (read_file path) decode_entry with
        | Some stats -> Some stats
        | None ->
            (* corrupt, truncated or empty: evict and recompute *)
            (try Sys.remove path with Sys_error _ -> ());
            Atomic.incr t.evictions;
            None)
  | Some _ -> None

let store_disk t k stats =
  match t.dir with
  | None -> ()
  | Some d when valid_key k -> (
      let path = entry_path d k in
      if not (Sys.file_exists path) then begin
        let payload = Marshal.to_string stats [] in
        let tmp =
          Filename.concat d
            (Printf.sprintf ".tmp-%d-%d-%s"
               (Unix.getpid ())
               (Atomic.fetch_and_add tmp_counter 1)
               k)
        in
        match open_out_bin tmp with
        | exception Sys_error _ -> Atomic.incr t.write_failures
        | oc -> (
            let written =
              match
                Fun.protect
                  ~finally:(fun () -> close_out_noerr oc)
                  (fun () ->
                    output_string oc magic;
                    output_string oc (Digest.string payload);
                    output_string oc payload)
              with
              | () -> true
              | exception Sys_error _ -> false
            in
            if not written then begin
              (try Sys.remove tmp with Sys_error _ -> ());
              Atomic.incr t.write_failures
            end
            else
              (* atomic publish: concurrent writers of the same key race
                 benignly — both renames install identical content *)
              match Sys.rename tmp path with
              | () -> ()
              | exception Sys_error _ ->
                  (try Sys.remove tmp with Sys_error _ -> ());
                  Atomic.incr t.write_failures)
      end)
  | Some _ -> Atomic.incr t.write_failures

let find t k =
  Mutex.lock t.lock;
  let hot = Hashtbl.find_opt t.table k in
  Mutex.unlock t.lock;
  match hot with
  | Some stats -> Some (stats, `Memory)
  | None -> (
      match load_disk t k with
      | None -> None
      | Some stats ->
          Mutex.lock t.lock;
          (* another thread may have promoted it meanwhile; keep the
             first so every memory hit returns one shared value *)
          let stats =
            match Hashtbl.find_opt t.table k with
            | Some existing -> existing
            | None ->
                Hashtbl.replace t.table k stats;
                stats
          in
          Mutex.unlock t.lock;
          Some (stats, `Disk))

let put t k stats =
  Mutex.lock t.lock;
  if not (Hashtbl.mem t.table k) then Hashtbl.replace t.table k stats;
  Mutex.unlock t.lock;
  store_disk t k stats

let memory_entries t =
  Mutex.lock t.lock;
  let n = Hashtbl.length t.table in
  Mutex.unlock t.lock;
  n

let disk_entries t =
  match t.dir with
  | None -> 0
  | Some d -> (
      match Sys.readdir d with
      | entries ->
          Array.fold_left
            (fun acc e -> if valid_key e then acc + 1 else acc)
            0 entries
      | exception Sys_error _ -> 0)

let evictions t = Atomic.get t.evictions
let write_failures t = Atomic.get t.write_failures
