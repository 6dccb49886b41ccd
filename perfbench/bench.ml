(* The tuning-service benchmark.

   bench.exe --workload cold-tunes|mixed --seed N --seconds S
             --trace 0|1 --server EXE --work DIR

   Builds the warm set and its pristine cache image, starts the real
   [serve] daemon on it (several times, for set-up time), drives it over
   its Unix socket with the workload's seeded requests, checks every
   answer, and prints one JSON line: the end-to-end metrics with
   [--trace 0]; with [--trace 1] the per-layer metrics, which add the
   traced in-process layer probes.  See README.md. *)

let workload = ref ""
let seed = ref 0
let seconds = ref 20
let traced = ref 0
let server = ref ""
let work = ref ""

let () =
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " cold-tunes | mixed");
      ("--seed", Arg.Set_int seed, " workload seed");
      ("--seconds", Arg.Set_int seconds, " measured seconds");
      ("--trace", Arg.Set_int traced, " 1 = per-layer metrics from the traced run");
      ("--server", Arg.Set_string server, " the conv_io executable to serve");
      ("--work", Arg.Set_string work, " scratch directory for caches and sockets");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload W --seed N --seconds S --trace 0|1 --server EXE --work DIR"

let setup_runs = 15
let trace_cold_keys = 3
let trace_warm_asks = 2048

(* The pristine cache image: every warm-set record, put through
   [Result_cache] under the daemon's generation and compacted. *)
let pristine () =
  let path = Filename.concat !work "pristine.cache" in
  Server.rm path;
  let cache = Service.Result_cache.load ~generation:Probes.generation path in
  Array.iter
    (fun k -> Service.Result_cache.put cache (Keys.warm_entry k))
    (Lazy.force Keys.warm_keys);
  Service.Result_cache.flush cache;
  Server.read_file path

(* --- metrics -------------------------------------------------------------- *)

let metrics = ref []
let metric name unit value = metrics := (name, unit, value) :: !metrics
let ms = List.map (fun x -> x *. 1e3)
let latency (a : Loads.ask) = a.answered -. a.due

(* Order statistics through [Util.Stats]; [nan] on no samples. *)
let quantile q = function
  | [] -> nan
  | xs -> Util.Stats.percentile (Array.of_list xs) (q *. 100.)

let median = quantile 0.5
let sum = List.fold_left ( +. ) 0.
let share num den = if den = 0 then 0. else float_of_int num /. float_of_int den

(* A latency quantile in ms over the run. *)
let latency_ms q asks = quantile q (ms (List.map latency asks))

(* An ask is good when its answer is correct and within its class's limit:
   60 s for a cold ask, and 10 ms from due for a warm ask of the open
   loop.  Good asks per second, from the start of the run to its last
   answer. *)
let good_asks_per_s ~bad (asks : Loads.ask list) t0 =
  let limit (a : Loads.ask) = if a.cold then 60. else 0.010 in
  let good (a : Loads.ask) = latency a <= limit a && not (List.memq a bad) in
  let last = List.fold_left (fun m (a : Loads.ask) -> Float.max m a.answered) t0 asks in
  float_of_int (List.length (List.filter good asks)) /. (last -. t0)

let end_to_end ~setups ~cpu ~bad (asks : Loads.ask list) t0 =
  metric "setup_s" "s" (median setups);
  metric "good_asks_per_s" "1/s" (good_asks_per_s ~bad asks t0);
  metric "ask_ms_p50" "ms" (latency_ms 0.5 asks);
  metric "server_cpu_ms_per_ask" "ms" (cpu *. 1e3 /. float_of_int (List.length asks))

(* The traced run's figures: the in-process layer probes, the daemon's
   STATS, and on mixed the socket time per warm ask.  Returns the number
   of failed cross-checks. *)
let per_layer ~pristine ~stats ~failed ~cold_keys (asks : Loads.ask list) t0 t1 =
  let work = !work in
  let cold = List.filter (fun (a : Loads.ask) -> a.cold) asks in
  let warm = List.filter (fun (a : Loads.ask) -> not a.cold) asks in
  let stat kvs k = try float_of_string (List.assoc k kvs) with Not_found -> nan in
  Trace.enabled := true;
  let warm_keys =
    match warm with
    | [] ->
      let next = Keys.warm_stream ~seed:!seed in
      List.init trace_warm_asks (fun _ -> (Lazy.force Keys.warm_keys).(next ()))
    | _ -> List.filteri (fun i _ -> i < trace_warm_asks) (List.map (fun (a : Loads.ask) -> a.key) warm)
  in
  let w = Probes.warm ~work ~pristine warm_keys in
  (* Cold probes: the workload's own first cold keys. *)
  let probe_keys =
    Array.to_list (Array.sub cold_keys 0 (min trace_cold_keys (Array.length cold_keys)))
  in
  let cs = List.map (Probes.cold ~work) probe_keys in
  (* Each probed tune must reproduce the daemon's answer for that key. *)
  let diverged =
    List.filter
      (fun ((k : Keys.key), (c : Probes.cold)) ->
        match List.find_opt (fun (a : Loads.ask) -> a.key == k) cold with
        | None -> false
        | Some a -> (
          match Check.result a with
          | Some r -> Printf.sprintf "%.6f" r.runtime_us <> Printf.sprintf "%.6f" c.result.best_runtime_us
          | None -> true))
      (List.combine probe_keys cs)
  in
  List.iter (fun ((k : Keys.key), _) -> prerr_endline ("check failed: in-process tune differs from the daemon for " ^ k.canonical)) diverged;
  let us name = List.map (fun x -> x *. 1e6) (Trace.durations name) in
  let med f = median (List.map f cs) in
  let total f = sum (List.map f cs) in
  let share_of f g = total f /. total g in
  metric "result_cache.load_ms" "ms" w.load_ms;
  metric "result_cache.load_plain_ms" "ms" w.load_plain_ms;
  (* Figures that need asks a workload never sends read 0. *)
  let or0 x = if Float.is_nan x then 0. else x in
  metric "audit.check_us_p50" "us" (median (us "audit.check"));
  metric "audit.check_us_p99" "us" (quantile 0.99 (us "audit.check"));
  (* Audits the daemon made beyond its load and one post-tune audit per
     tune, per cache hit. *)
  metric "audit.checks_per_hit" "count"
    (or0
       ((stat stats "audited" -. float_of_int w.load_audits -. stat stats "tunes_run")
       /. stat stats "hits"));
  metric "protocol.parse_request_us" "us" (median (us "protocol.parse_request"));
  metric "result_cache.find_us" "us" (median (us "result_cache.find"));
  metric "result_cache.find_plain_us" "us" (median (us "result_cache.find_plain"));
  metric "protocol.render_response_us" "us" (median (us "protocol.render_response"));
  metric "engine.hit_us" "us" w.engine_hit_us;
  (* A warm ask is blocked when a cold ask was outstanding at its send time
     and was answered no later than it. *)
  let blocked (w : Loads.ask) =
    List.exists (fun (c : Loads.ask) -> c.sent <= w.sent && w.sent < c.answered && c.answered <= w.answered) cold
  in
  (* Socket time per warm ask: a warm batch's time from its send to its
     last answer, over its asks; the median unblocked batch, on mixed
     only. *)
  let socket_us =
    let batches = Hashtbl.create 256 in
    List.iter
      (fun (a : Loads.ask) ->
        Hashtbl.replace batches a.due (a :: Option.value ~default:[] (Hashtbl.find_opt batches a.due)))
      warm;
    Hashtbl.fold
      (fun _ (b : Loads.ask list) acc ->
        if List.exists blocked b then acc
        else
          let last = List.fold_left (fun m (a : Loads.ask) -> Float.max m a.answered) 0. b in
          ((last -. (List.hd b).sent) *. 1e6 /. float_of_int (List.length b)) :: acc)
      batches []
    |> median
  in
  metric "daemon.socket_us_per_ask" "us" (or0 socket_us);
  metric "daemon.wire_us_per_ask" "us" (or0 (socket_us -. w.engine_hit_us));
  metric "xcheck.hit_over_socket" "ratio" (or0 (w.engine_hit_us /. socket_us));
  metric "tuner.tune_ms" "ms" (med (fun c -> c.tune_ms));
  metric "tuner.trials" "count" (med (fun c -> float_of_int c.trials));
  metric "tuner.rounds" "count" (med (fun c -> float_of_int c.rounds));
  metric "tuner.converged_at" "count" (med (fun c -> float_of_int c.result.converged_at));
  metric "tuner.useful_trial_share" "share"
    (share_of (fun c -> float_of_int c.result.converged_at) (fun c -> float_of_int c.trials));
  metric "cost_model.retrain_ms_per_tune" "ms" (med (fun c -> c.retrain_ms));
  metric "explorer.explore_ms_per_tune" "ms" (med (fun c -> c.explore_ms));
  metric "measure.robust_ms_per_tune" "ms" (med (fun c -> c.measure_ms));
  metric "tuner.retrain_share" "share" (share_of (fun c -> c.retrain_ms) (fun c -> c.tune_ms));
  metric "tuner.decomp_gap" "share"
    (1. -. share_of (fun c -> c.retrain_ms +. c.explore_ms +. c.measure_ms) (fun c -> c.tune_ms));
  metric "result_cache.put_us" "us" (med (fun c -> c.put_us));
  (* Answer quality: the run's cold answers. *)
  let answers =
    List.filter_map
      (fun (a : Loads.ask) ->
        Option.map (fun (r : Service.Protocol.result_payload) -> (a.key, r.config, r.runtime_us)) (Check.result a))
      cold
  in
  let geomean xs = Util.Stats.geomean (Array.of_list xs) in
  metric "tuner.q_ratio_geomean" "ratio"
    (geomean (List.map (fun ((k : Keys.key), c, _) -> Verify.Audit.q_ratio k.arch k.spec c) answers));
  metric "answer.sim_us_geomean" "sim-us" (geomean (List.map (fun (_, _, us) -> us) answers));
  (* Cold-ask and open-loop figures. *)
  metric "cold.ask_s_p50" "s" (or0 (median (List.map latency cold)));
  metric "cold.tunes_per_min" "1/min" (float_of_int (List.length cold) *. 60. /. (t1 -. t0));
  metric "daemon.warm_blocked_share" "share"
    (share (List.length (List.filter blocked warm)) (List.length warm));
  metric "ask_ms_p95" "ms" (latency_ms 0.95 asks);
  metric "ask_ms_p99" "ms" (latency_ms 0.99 asks);
  metric "ask_slo_share" "share"
    (share (List.length (List.filter (fun a -> latency a <= 0.010) warm)) (List.length warm));
  metric "gen.late_ms_p99" "ms" (quantile 0.99 (ms (List.map (fun (a : Loads.ask) -> a.sent -. a.due) asks)));
  metric "client.attempts_per_ask" "count"
    (Util.Stats.mean (Array.of_list (List.map (fun (a : Loads.ask) -> float_of_int a.attempts) cold)));
  metric "fail_share" "share" (share (failed + List.length diverged) (List.length asks));
  List.iter
    (fun k -> metric ("stats." ^ k) "count" (stat stats k))
    [ "hits"; "misses"; "tunes_run"; "coalesced"; "busy"; "deadline_shed"; "quarantined"; "audit_rejected" ];
  metric "trace.overhead_share" "share" w.overhead_share;
  metric "trace.spans" "count" (float_of_int (Trace.count ()));
  Trace.write (Filename.concat work ("trace-" ^ !workload ^ ".jsonl"));
  List.length diverged

let () =
  (* A lazier major GC keeps the load generator's own pauses out of the
     latencies it records.  The daemon is a separate process and keeps the
     defaults. *)
  let gc = Gc.get () in
  Gc.set { gc with space_overhead = 200 };
  if not (List.mem !workload [ "cold-tunes"; "mixed" ]) then begin
    prerr_endline ("unknown workload: " ^ !workload);
    exit 2
  end;
  if not (Sys.file_exists !work) then Sys.mkdir !work 0o755;
  let work = !work and exe = !server in
  let secs = float_of_int !seconds in
  let pristine = pristine () in
  (* The audited load must admit every warm record. *)
  let loaded =
    Service.Result_cache.load ~audit:true ~generation:Probes.generation
      (Probes.fresh_copy ~work ~pristine "check.cache")
  in
  let load_ok =
    Service.Result_cache.quarantined loaded = 0
    && Service.Result_cache.entries loaded = Array.length (Lazy.force Keys.warm_keys)
  in
  (* Set-up: the daemon is started [setup_runs] times, partly before and
     partly after the workload so that the median samples the host at
     different moments; the serving daemon is the last one started before
     the workload.  The CPU time of the daemons that only loaded is the
     cost of a load, subtracted from the serving daemon's total. *)
  let setups = ref [] and load_cpu = ref [] in
  let start () =
    let d, s = Server.start ~exe ~work ~pristine in
    setups := s :: !setups;
    d
  in
  let load_only () = load_cpu := Server.stop (start ()) :: !load_cpu in
  for _ = 2 to (setup_runs + 1) / 2 do load_only () done;
  let daemon = start () in
  let cold_keys =
    match !workload with
    | "cold-tunes" -> Keys.cold_list ~seed:!seed ~seconds:!seconds
    | _ -> Keys.mixed_cold_list ~seed:!seed ~n:(Loads.cold_asks_in ~seconds:secs)
  in
  let socket = daemon.Server.socket in
  let asks, t0, t1 =
    match !workload with
    | "cold-tunes" -> Loads.cold_tunes ~socket cold_keys
    | _ -> Loads.mixed ~socket ~seed:!seed ~seconds:secs cold_keys
  in
  let stats = Server.stats daemon in
  let cpu = Server.stop daemon -. median !load_cpu in
  if !traced = 0 then for _ = 1 to setup_runs / 2 do load_only () done;
  (* Checks, after the timed phase. *)
  let stat k = try int_of_string (List.assoc k stats) with Not_found -> -1 in
  let n_cold = List.length (List.filter (fun (a : Loads.ask) -> a.cold) asks) in
  let bad = Check.failures asks in
  (* One ledger per daemon build: another program may answer differently. *)
  let ledger = Filename.concat work ("ledger-" ^ Digest.to_hex (Digest.file exe)) in
  let drift = Check.ledger_mismatches ~path:ledger asks in
  let cross =
    [
      ("the audited load admitted every warm record", load_ok);
      ("every cold ask missed the cache", stat "misses" = n_cold);
      ("warm asks ran no tune", stat "tunes_run" = n_cold);
      ("nothing was quarantined or rejected", stat "quarantined" = 0 && stat "audit_rejected" = 0);
      ("tuned answers repeat across runs", drift = []);
    ]
  in
  List.iter (fun (what, ok) -> if not ok then prerr_endline ("check failed: " ^ what)) cross;
  List.iteri
    (fun i (a : Loads.ask) -> if i < 5 then prerr_endline ("bad answer to " ^ a.key.line ^ ": " ^ a.line))
    bad;
  let failed = List.length bad + List.length (List.filter (fun (_, ok) -> not ok) cross) in
  let failed =
    if !traced = 0 then begin
      end_to_end ~setups:!setups ~cpu ~bad asks t0;
      failed
    end
    else begin
      (* The in-process probes run under the daemon's GC settings. *)
      Gc.set gc;
      Gc.compact ();
      failed + per_layer ~pristine ~stats ~failed ~cold_keys asks t0 t1
    end
  in
  let bad_values = List.filter (fun (_, _, v) -> not (Float.is_finite v)) !metrics in
  List.iter (fun (n, _, _) -> prerr_endline ("check failed: no value for " ^ n)) bad_values;
  let failed = failed + List.length bad_values in
  let fields =
    List.rev !metrics
    |> List.map (fun (n, u, v) ->
           Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" n
             (if Float.is_finite v then v else 0.) u)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (failed = 0) (List.length asks) failed (String.concat ", " fields);
  if failed > 0 then exit 1
