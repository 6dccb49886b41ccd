(* In-memory spans around the benchmark's own calls into the layers: name,
   start, end, parent span and request id.  Off, [span] only runs the
   call; on, it records.  Spans are written out once, at the end. *)

type span = { id : int; name : string; parent : int; req : int; start : float; stop : float }

let enabled = ref false
let spans = ref []
let next_id = ref 0

let span ?(parent = 0) ?(req = 0) name f =
  if not !enabled then f 0
  else begin
    incr next_id;
    let id = !next_id in
    let start = Unix.gettimeofday () in
    let r = f id in
    spans := { id; name; parent; req; start; stop = Unix.gettimeofday () } :: !spans;
    r
  end

(* Durations in seconds of the spans named [name], oldest first. *)
let durations name =
  List.rev !spans |> List.filter_map (fun s -> if s.name = name then Some (s.stop -. s.start) else None)

let count () = List.length !spans

let write path =
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\":%d,\"name\":%S,\"parent\":%d,\"req\":%d,\"start\":%.6f,\"end\":%.6f}\n" s.id
        s.name s.parent s.req s.start s.stop)
    (List.rev !spans);
  close_out oc
