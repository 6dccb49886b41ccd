(* The traced run's in-process layer probes: the benchmark's own calls into
   each layer's public functions, each wrapped in a {!Trace} span. *)

let generation = Service.Engine.generation_of_settings Server.settings
let median xs = Util.Stats.median (Array.of_list xs)

let fresh_copy ~work ~pristine name =
  let p = Filename.concat work name in
  Server.rm (p ^ ".quarantine");
  Server.write_file p pristine;
  p

let load ~work ~pristine ~audit =
  let p = fresh_copy ~work ~pristine (if audit then "probe-a.cache" else "probe-p.cache") in
  Trace.span
    (if audit then "result_cache.load" else "result_cache.load_plain")
    (fun _ -> Service.Result_cache.load ~audit ~generation p)

(* One warm hit decomposed into its layer calls: parse, find (audited and
   plain), the audit itself, render. *)
let warm_request ~audited ~plain i (k : Keys.key) =
  Trace.span ~req:i "warm.request" (fun id ->
      let span name f = Trace.span ~parent:id ~req:i name (fun _ -> f ()) in
      let canonical =
        match span "protocol.parse_request" (fun () -> Service.Protocol.parse_request k.line) with
        | Ok (Service.Protocol.Tune r) -> Service.Protocol.canonical_of_tune r
        | _ -> failwith "warm line did not parse"
      in
      let e =
        match span "result_cache.find" (fun () -> Service.Result_cache.find audited ~canonical) with
        | Some e -> e
        | None -> failwith ("warm key missing from the cache: " ^ canonical)
      in
      ignore (span "result_cache.find_plain" (fun () -> Service.Result_cache.find plain ~canonical));
      let v =
        span "audit.check" (fun () ->
            Verify.Audit.check ~key:e.key ~gflops:e.gflops ~predicted_us:e.predicted_us
              ~canonical ~config:e.config ~runtime_us:e.runtime_us ())
      in
      if v <> Verify.Audit.Ok then failwith ("warm entry failed its audit: " ^ canonical);
      ignore
        (span "protocol.render_response" (fun () ->
             Service.Protocol.render_response
               (Service.Protocol.Result
                  {
                    key = e.key;
                    source = Service.Protocol.Src_cached;
                    runtime_us = e.runtime_us;
                    gflops = e.gflops;
                    trials = 0;
                    config = e.config;
                  }))))

type warm = {
  load_ms : float;
  load_plain_ms : float;
  load_audits : int;
  engine_hit_us : float;
  overhead_share : float;  (** traced over untraced replay time, minus 1 *)
}

let warm ~work ~pristine keys =
  let loads audit = List.init 3 (fun _ -> load ~work ~pristine ~audit) in
  let audited = List.hd (loads true) and plain = List.hd (loads false) in
  let load_audits = Service.Result_cache.audited audited in
  let replay () =
    let t0 = Unix.gettimeofday () in
    List.iteri (fun i k -> warm_request ~audited ~plain (i + 1) k) keys;
    Unix.gettimeofday () -. t0
  in
  (* Untraced and traced replays run in adjacent pairs, alternating which
     goes first; the host's speed drifts between pairs, so the overhead is
     the median of the per-pair ratios. *)
  let timed traced =
    Trace.enabled := traced;
    replay ()
  in
  let ratios =
    List.init 8 (fun i ->
        if i mod 2 = 0 then
          let u = timed false in
          timed true /. u
        else
          let t = timed true in
          t /. timed false)
  in
  Trace.enabled := true;
  let engine_hit_us =
    let p = fresh_copy ~work ~pristine "probe-e.cache" in
    let e = Service.Engine.create ~settings:Server.settings ~cache:p () in
    let c = Service.Engine.connect e in
    let rec batches = function
      | [] -> ()
      | ks ->
        let b = List.filteri (fun i _ -> i < Loads.batch) ks in
        Trace.span "engine.batch" (fun _ ->
            List.iter (fun (k : Keys.key) -> Service.Engine.submit e c k.line) b;
            if List.length (Service.Engine.step e) <> List.length b then
              failwith "engine answered a batch partially");
        batches (List.filteri (fun i _ -> i >= Loads.batch) ks)
    in
    for _ = 1 to 4 do batches keys done;
    median (Trace.durations "engine.batch") *. 1e6 /. float_of_int Loads.batch
  in
  let ms name = median (Trace.durations name) *. 1e3 in
  {
    load_ms = ms "result_cache.load";
    load_plain_ms = ms "result_cache.load_plain";
    load_audits;
    engine_hit_us;
    overhead_share = median ratios -. 1.;
  }

(* --- cold keys ------------------------------------------------------------ *)

let tuner_src =
  lazy (List.find (fun s -> Logs.Src.name s = "conv_io.tuner") (Logs.Src.list ()))

(* Dataset sizes at each round's retrain, read from the tuner's own debug
   events ("round N: M measurements (F failed) ..."). *)
let round_sizes = ref []

let () =
  Logs.set_reporter
    {
      Logs.report =
        (fun src _ ~over k msgf ->
          msgf (fun ?header:_ ?tags:_ fmt ->
              Format.kasprintf
                (fun s ->
                  if src == Lazy.force tuner_src then
                    Option.iter
                      (fun n -> round_sizes := n :: !round_sizes)
                      (Scanf.sscanf_opt s "round %d: %d measurements (%d failed)" (fun _ m f ->
                           m + f));
                  over ();
                  k ())
                fmt));
    }

type cold = {
  result : Core.Tuner.result;
  tune_ms : float;
  trials : int;
  rounds : int;
  retrain_ms : float;
  explore_ms : float;
  measure_ms : float;
  put_us : float;
}

let cold ~work (k : Keys.key) =
  let s = Server.settings in
  let domains = Util.Parallel.recommended_domains () in
  let space = Core.Search_space.make ~pruned:true k.arch k.spec k.algorithm in
  let tune ?journal () =
    match
      Core.Tuner.tune_outcome ~seed:s.seed ~max_measurements:s.budget_trials
        ~max_consecutive_failures:s.policy.breaker_k ?journal ~space ()
    with
    | Ok r -> r
    | Error _ -> failwith ("cold tune failed: " ^ k.canonical)
  in
  let before name = List.length (Trace.durations name) in
  let since name n = List.filteri (fun i _ -> i >= n) (Trace.durations name) in
  let marks = List.map (fun n -> (n, before n)) [ "cost_model.retrain"; "explorer.explore"; "measure.robust"; "result_cache.put" ] in
  let part name = List.fold_left ( +. ) 0. (since name (List.assoc name marks)) *. 1e3 in
  let t0 = Unix.gettimeofday () in
  let result = Trace.span "tuner.tune" (fun _ -> tune ()) in
  let tune_ms = (Unix.gettimeofday () -. t0) *. 1e3 in
  (* The measurement sequence and round boundaries, from a journaled rerun
     with the tuner's debug events captured. *)
  let journal = Filename.concat work "probe.journal" in
  Server.rm journal;
  Server.rm (journal ^ ".ckpt");
  round_sizes := [];
  Logs.Src.set_level (Lazy.force tuner_src) (Some Logs.Debug);
  let again = tune ~journal () in
  Logs.Src.set_level (Lazy.force tuner_src) (Logs.level ());
  if again.best_runtime_us <> result.best_runtime_us then
    failwith ("journaled tune diverged: " ^ k.canonical);
  let entries = Array.of_list (Core.Tune_journal.load journal).entries in
  (* The round boundaries come from the wording of a debug event: if it no
     longer parses, fail rather than report an empty decomposition. *)
  let sizes = List.rev !round_sizes in
  if sizes = [] || List.exists (fun n -> n > Array.length entries) sizes then
    failwith
      (Printf.sprintf "tuner probe: %d round boundaries for a %d-trial journal of %s"
         (List.length sizes) (Array.length entries) k.canonical);
  let config (e : Core.Tune_journal.entry) =
    match Core.Config.of_compact e.key with
    | Some c -> c
    | None -> failwith ("bad journal key " ^ e.key)
  in
  let model = Core.Cost_model.create k.spec in
  let rng = Util.Rng.create 1 in
  let added = ref 0 in
  List.iter
    (fun n ->
      while !added < n do
        let e = entries.(!added) in
        (match e.outcome with
        | Core.Tune_journal.Measured us -> Core.Cost_model.add_measurement model (config e) us
        | Core.Tune_journal.Failed _ -> Core.Cost_model.add_failure model (config e));
        incr added
      done;
      Trace.span "cost_model.retrain" (fun _ -> Core.Cost_model.retrain ~rng ~domains model);
      ignore
        (Trace.span "explorer.explore" (fun _ ->
             Core.Explorer.explore ~domains ~space ~model ~rng ~starts:[ result.best_config ] ())))
    sizes;
  (* Each round's batch of measurements, fanned out over the domains as the
     tuner does, so the probe times wall time as [tuner.tune_ms] does. *)
  List.iter
    (fun (lo, hi) ->
      let batch = Array.map config (Array.sub entries lo (hi - lo)) in
      ignore
        (Trace.span "measure.robust" (fun _ ->
             Util.Parallel.map ~domains batch (Core.Tuner.measure_config_robust k.arch k.spec))))
    (List.combine (0 :: sizes) (sizes @ [ Array.length entries ]));
  let put_path = Filename.concat work "probe-put.cache" in
  Server.rm put_path;
  let cache = Service.Result_cache.load ~generation put_path in
  Trace.span "result_cache.put" (fun _ ->
      Service.Result_cache.put cache
        {
          Service.Result_cache.key = Service.Result_cache.key_of_canonical k.canonical;
          canonical = k.canonical;
          source = Service.Protocol.Src_tuned;
          runtime_us = result.best_runtime_us;
          gflops = result.best_gflops;
          predicted_us = Verify.Audit.predicted_us k.arch k.spec result.best_config;
          trials = result.measurements;
          config = result.best_config;
        });
  {
    result;
    tune_ms;
    trials = result.measurements + result.faults.failed;
    rounds = List.length sizes;
    retrain_ms = part "cost_model.retrain";
    explore_ms = part "explorer.explore";
    measure_ms = part "measure.robust";
    put_us = part "result_cache.put" *. 1e3;
  }
