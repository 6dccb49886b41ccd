(* The two load generators.  Each drives the daemon over its Unix socket
   from this one process, records every ask (what was asked, when it was
   due, sent and answered, and the answer line) and leaves checking to
   {!Check}, after the timed phase. *)

type ask = {
  key : Keys.key;
  cold : bool;
  due : float;  (** when the ask was due (= sent for closed loops) *)
  mutable sent : float;
  mutable answered : float;  (** [nan] while unanswered *)
  mutable line : string;
  mutable attempts : int;
}

let ask ~cold ~due key =
  { key; cold; due; sent = due; answered = nan; line = ""; attempts = 1 }

let now = Unix.gettimeofday

(* Warm answers repeat byte-for-byte per key; keeping one copy keeps the
   generator's heap, and so its GC pauses, small. *)
let interned = Hashtbl.create 4096

let intern (a : ask) l =
  match Hashtbl.find_opt interned a.key.Keys.canonical with
  | Some l' when String.equal l l' -> l'
  | _ ->
    Hashtbl.replace interned a.key.Keys.canonical l;
    l

let fail_after limit what = if now () > limit then failwith (what ^ ": timed out")

(* Warm asks go out in batches of 16, as one model's layers would be asked
   for. *)
let batch = 16

(* --- cold-tunes: one client, one cold key at a time --------------------- *)

(* An attempt timeout far above the longest tune, so that attempts count
   wire faults, not slow tunes. *)
let cold_client =
  { Service.Client.default_settings with attempt_timeout_ms = 150_000; max_attempts = 3 }

let cold_tunes ~socket keys =
  let t0 = now () in
  let log =
    Array.to_list keys
    |> List.map (fun (k : Keys.key) ->
           let a = ask ~cold:true ~due:(now ()) k in
           let req =
             match Service.Protocol.parse_request k.line with
             | Ok r -> r
             | Error e -> failwith e
           in
           let res, attempts = Service.Client.ask ~settings:cold_client ~socket req in
           a.answered <- now ();
           a.attempts <- List.length attempts;
           (match res with
           | Ok r -> a.line <- Service.Protocol.render_response r
           | Error f -> a.line <- "FAILED " ^ Service.Client.failure_to_string f);
           a)
  in
  (log, t0, now ())

(* --- mixed: an open loop of warm batches (16 asks every 160 ms, 100
   asks/s) beside a cold ask every 8 s, each on its own connection.  The
   mixed list's tunes take ~1.2 s on a 2-vCPU x86 VM, so the tuner is busy
   about 15% of the time and the median ask sits well inside the unblocked
   asks: a host three times as slow still leaves it unblocked, which keeps
   [ask_ms_p50] off the cliff between the two regimes. ------------------ *)

let warm_period = 0.16
let cold_period = 8.0
let cold_offset = 1.0

let cold_asks_in ~seconds =
  int_of_float (Float.ceil ((seconds -. cold_offset) /. cold_period))

let mixed ~socket ~seed ~seconds cold_keys =
  let warm = Lazy.force Keys.warm_keys in
  let next_warm = Keys.warm_stream ~seed in
  let conn () =
    match Server.connect socket with Some c -> c | None -> failwith "mixed: cannot connect"
  in
  let cw = conn () and cc = conn () in
  let t0 = now () +. 0.05 in
  let t_end = t0 +. seconds in
  let limit = t_end +. 120. in
  let n_warm = int_of_float (Float.ceil (seconds /. warm_period)) in
  (* The schedule: (connection, due time, asks sent together). *)
  let schedule =
    List.init n_warm (fun i ->
        let due = t0 +. (float_of_int i *. warm_period) in
        (cw, due, List.init batch (fun _ -> ask ~cold:false ~due warm.(next_warm ()))))
    @ List.mapi
        (fun j k ->
          let due = t0 +. cold_offset +. (float_of_int j *. cold_period) in
          (cc, due, [ ask ~cold:true ~due k ]))
        (Array.to_list cold_keys)
    |> List.stable_sort (fun (_, a, _) (_, b, _) -> compare a b)
  in
  let todo = ref schedule in
  let outstanding = [ (cw, Queue.create ()); (cc, Queue.create ()) ] in
  let pending () = List.exists (fun (_, q) -> not (Queue.is_empty q)) outstanding in
  while !todo <> [] || pending () do
    fail_after limit "mixed";
    let timeout =
      match !todo with (_, due, _) :: _ -> Float.max 0. (due -. now ()) | [] -> 1.0
    in
    let fds =
      List.filter_map
        (fun ((c : Server.conn), q) -> if Queue.is_empty q then None else Some c.fd)
        outstanding
    in
    let readable, _, _ = Unix.select fds [] [] timeout in
    List.iter
      (fun ((c : Server.conn), q) ->
        if List.mem c.fd readable then
          match Server.read_lines c with
          | None -> failwith "mixed: daemon closed the connection"
          | Some lines ->
            let t = now () in
            List.iter
              (fun l ->
                let a = Queue.pop q in
                a.answered <- t;
                a.line <- intern a l)
              lines)
      outstanding;
    let rec send_due () =
      match !todo with
      | (c, due, asks) :: rest when due <= now () ->
        let t = now () in
        List.iter (fun a -> a.sent <- t) asks;
        Server.send c (String.concat "" (List.map (fun a -> a.key.Keys.line ^ "\n") asks));
        List.iter (fun a -> Queue.push a (List.assq c outstanding)) asks;
        todo := rest;
        send_due ()
      | _ -> ()
    in
    send_due ()
  done;
  Server.close cw;
  Server.close cc;
  (List.concat_map (fun (_, _, asks) -> asks) schedule, t0, t_end)
