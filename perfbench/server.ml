(* The daemon under test, as its own process: the real [serve] subcommand
   on a cache file restored byte-for-byte from the pristine image before
   every start. *)

type t = { pid : int; socket : string }

let budget = 300
let seed = 0

(* The settings the spawned daemon runs with, for the in-process probes
   and for the cache generation. *)
let settings =
  { Service.Engine.default_settings with budget_trials = budget; seed }

let write_file path data =
  let oc = open_out_bin path in
  output_string oc data;
  close_out oc

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let rm path = if Sys.file_exists path then Sys.remove path

let now = Unix.gettimeofday

(* --- raw line connections ---------------------------------------------- *)

type conn = { fd : Unix.file_descr; buf : Buffer.t; chunk : Bytes.t }

let connect socket =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX socket) with
  | () -> Some { fd; buf = Buffer.create 4096; chunk = Bytes.create 65536 }
  | exception Unix.Unix_error _ ->
    Unix.close fd;
    None

let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()

(* A blocking write: [Unix.write_substring] loops until every byte is out. *)
let send c s = ignore (Unix.write_substring c.fd s 0 (String.length s))

(* Reads what is available (blocking for at least one byte) and returns the
   complete lines, oldest first; [None] at end of stream. *)
let read_lines c =
  match Unix.read c.fd c.chunk 0 (Bytes.length c.chunk) with
  | 0 -> None
  | n ->
    Buffer.add_subbytes c.buf c.chunk 0 n;
    let rest, lines =
      match List.rev (String.split_on_char '\n' (Buffer.contents c.buf)) with
      | rest :: rev_lines -> (rest, List.rev rev_lines)
      | [] -> ("", [])
    in
    Buffer.clear c.buf;
    Buffer.add_string c.buf rest;
    Some lines
  | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) -> None

(* One request, one answer line, on a fresh connection. *)
let request socket line =
  match connect socket with
  | None -> None
  | Some c ->
    let answer =
      try
        send c (line ^ "\n");
        let rec wait () =
          match read_lines c with
          | Some (l :: _) -> Some l
          | Some [] -> wait ()
          | None -> None
        in
        wait ()
      with Unix.Unix_error _ -> None
    in
    close c;
    answer

(* --- process lifecycle --------------------------------------------------- *)

(* Daemons started and not yet reaped.  [kill_all] runs at exit, on an
   uncaught exception too, and on SIGTERM/SIGINT, so a failed run leaves no
   daemon behind. *)
let live = ref []

let reap pid =
  (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
  (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
  live := List.filter (( <> ) pid) !live

let kill_all () = List.iter reap !live

let () =
  at_exit kill_all;
  List.iter
    (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 2)))
    [ Sys.sigterm; Sys.sigint ]

(* Starts [exe serve] on a freshly restored cache and polls a raw connect
   plus PING every half millisecond until it answers; returns the daemon
   and the seconds from spawn to the first PONG. *)
let start ~exe ~work ~pristine =
  let socket = Filename.concat work "d.sock" in
  let cache = Filename.concat work "d.cache" in
  rm socket;
  rm (cache ^ ".quarantine");
  write_file cache pristine;
  let log =
    Unix.openfile (Filename.concat work "daemon.log")
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644
  in
  let args =
    [| exe; "serve"; "--socket"; socket; "--cache"; cache; "--budget";
       string_of_int budget; "--seed"; string_of_int seed |]
  in
  let t0 = now () in
  (* The daemon never reads stdin; its output goes to the log. *)
  let pid = Unix.create_process exe args Unix.stdin log log in
  live := pid :: !live;
  Unix.close log;
  let rec poll () =
    if now () -. t0 > 60. then begin
      reap pid;
      failwith "daemon did not answer PING within 60s"
    end;
    match if Sys.file_exists socket then request socket "PING" else None with
    | Some "PONG" -> now () -. t0
    | _ ->
      (match Unix.waitpid [ Unix.WNOHANG ] pid with
      | 0, _ -> ()
      | _ ->
        live := List.filter (( <> ) pid) !live;
        failwith "daemon exited during start-up (see daemon.log)");
      Unix.sleepf 0.0005;
      poll ()
  in
  let setup_s = poll () in
  ({ pid; socket }, setup_s)

(* SIGKILL and reap; returns the daemon's total CPU seconds. *)
let stop d =
  let before = Unix.times () in
  reap d.pid;
  let after = Unix.times () in
  rm d.socket;
  after.tms_cutime +. after.tms_cstime -. before.tms_cutime -. before.tms_cstime

let stats d =
  match request d.socket "STATS" with
  | Some l -> begin
    match Service.Protocol.parse_response l with
    | Some (Service.Protocol.Stats_reply kvs) -> kvs
    | _ -> failwith ("bad STATS answer: " ^ l)
  end
  | None -> failwith "STATS got no answer"
