(* Output checks, run on the recorded answer lines after the timed phase so
   they cost no timed CPU.  An answer is correct when it is an OK whose key
   is the content hash of its own request's canonical string, passes the
   wire-policy audit, and has the expected source: cached with zero trials
   for a warm key, tuned for a cold one. *)

let answer_ok (a : Loads.ask) =
  match Service.Protocol.parse_response a.line with
  | Some (Service.Protocol.Result r) ->
    r.key = Service.Result_cache.key_of_canonical a.key.Keys.canonical
    && Verify.Audit.check ~policy:Verify.Audit.wire ~key:r.key ~gflops:r.gflops
         ~canonical:a.key.canonical ~config:r.config ~runtime_us:r.runtime_us ()
       = Verify.Audit.Ok
    && (if a.cold then r.source = Service.Protocol.Src_tuned
        else r.source = Service.Protocol.Src_cached && r.trials = 0)
  | _ -> false

(* Warm answers repeat byte-for-byte per key, so each distinct (request,
   answer) pair is audited once. *)
let failures asks =
  let memo = Hashtbl.create 4096 in
  List.filter
    (fun (a : Loads.ask) ->
      let k = (a.key.Keys.canonical, a.line) in
      let ok =
        match Hashtbl.find_opt memo k with
        | Some ok -> ok
        | None ->
          let ok = answer_ok a in
          Hashtbl.replace memo k ok;
          ok
      in
      not ok)
    asks

let result (a : Loads.ask) =
  match Service.Protocol.parse_response a.line with
  | Some (Service.Protocol.Result r) -> Some r
  | _ -> None

(* Tuned answers are deterministic: the same cold key must answer the same
   runtime in every run of one daemon build.  The ledger at [path] holds
   one [content-key runtime] line per cold key answered so far; returns the
   keys whose runtime changed. *)
let ledger_mismatches ~path asks =
  let known = Hashtbl.create 64 in
  if Sys.file_exists path then
    String.split_on_char '\n' (Server.read_file path)
    |> List.iter (fun l ->
           match String.split_on_char ' ' l with
           | [ k; v ] -> Hashtbl.replace known k v
           | _ -> ());
  let bad =
    List.filter_map
      (fun (a : Loads.ask) ->
        match result a with
        | Some r when a.cold -> (
          let v = Printf.sprintf "%h" r.runtime_us in
          match Hashtbl.find_opt known r.key with
          | Some v' when v' <> v -> Some a.key.Keys.canonical
          | Some _ -> None
          | None ->
            Hashtbl.replace known r.key v;
            None)
        | _ -> None)
      asks
  in
  Server.write_file path
    (Hashtbl.fold (fun k v acc -> (k ^ " " ^ v) :: acc) known []
    |> List.sort compare |> String.concat "\n");
  bad
