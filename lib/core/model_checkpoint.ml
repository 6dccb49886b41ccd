type entry = {
  n_samples : int;
  snapshot : string;
}

let kind = "gbt-checkpoint"

let path_for journal = journal ^ ".ckpt"

(* Line versions: c1 and c2 date from when an exact-presort trainer existed
   beside the histogram one (c2 tagged which one wrote the line); c3 holds
   boosters of the one histogram trainer.  Only c3 parses, so an older line
   is never restored — its round retrains, yielding the bits a matching
   snapshot would. *)
let version = "c3\t"

let to_line e =
  if e.n_samples <= 0 then invalid_arg "Model_checkpoint.to_line: non-positive n_samples";
  if String.exists (fun c -> c = '\n' || c = '\r') e.snapshot then
    invalid_arg "Model_checkpoint.to_line: newline in snapshot";
  Printf.sprintf "%s%d\t%s" version e.n_samples e.snapshot

(* The snapshot itself contains tabs, so split only the leading field. *)
let of_line line =
  let v = String.length version in
  if String.length line > v && String.sub line 0 v = version then
    match String.index_from_opt line v '\t' with
    | Some tab -> begin
      match int_of_string_opt (String.sub line v (tab - v)) with
      | Some n when n > 0 ->
        Some { n_samples = n; snapshot = String.sub line (tab + 1) (String.length line - tab - 1) }
      | _ -> None
    end
    | None -> None
  else None

let append path e = Util.Durable.append ~kind path (to_line e)

type load_result = {
  entries : entry list;
  dropped : int;
  reason : string option;
}

let recover path =
  let outcome = Util.Durable.repair ~kind path in
  Util.Durable.warn_dropped ~path outcome;
  let payloads = Util.Durable.records outcome in
  let entries = List.filter_map of_line payloads in
  let undecodable = List.length payloads - List.length entries in
  {
    entries;
    dropped = Util.Durable.dropped outcome + undecodable;
    reason =
      (match outcome with
      | Util.Durable.Salvaged { reason; _ } -> Some reason
      | _ when undecodable > 0 -> Some "checksummed record failed to decode"
      | _ -> None);
  }

let to_table entries =
  let table = Hashtbl.create (List.length entries * 2) in
  List.iter (fun e -> Hashtbl.replace table e.n_samples e.snapshot) entries;
  table
