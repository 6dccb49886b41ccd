type settings = {
  seed : int;
  budget : int;
  backend : Cnn.Runner.backend;
}

let default_settings = { seed = 0; budget = 120; backend = Cnn.Runner.Cudnn }

let backend_token = function Cnn.Runner.Cudnn -> "cudnn" | Cnn.Runner.Miopen -> "miopen"

let generation s =
  Printf.sprintf "fleet;seed=%d;budget=%d;backend=%s;trainer=%s" s.seed s.budget
    (backend_token s.backend) Core.Cost_model.trainer

let fleet_models () = Cnn.Models.evaluation_models @ [ Cnn.Models.mobilenet ]
let fleet_arches () = Gpu_sim.Arch.all

type pair = {
  model : Cnn.Models.t;
  arch : Gpu_sim.Arch.t;
  gold : Gold.file;
  timing : Cnn.Runner.model_timing;
  wall_s : float;
  live : int;
  warm : int;
}

(* Which memo keys were answered from the result cache rather than tuned in
   this process.  Process-lifetime (pairs share the runner's memo table, so a
   key primed while sweeping ResNet-18 is still a replay when ResNet-34 hits
   the same shape); the harness resets it together with the memo table. *)
let replayed : (string, unit) Hashtbl.t = Hashtbl.create 64

let reset_replays () = Hashtbl.reset replayed

let canonical_of arch spec algorithm =
  Core.Search_space.canonical_key arch spec algorithm ~pruned:true

(* The per-layer optimality gap and the analytic price both come from the
   auditor — gold files must reprice bit-identically through the same code
   path [Verify.Audit.check] uses, or audit-on-read would reject them. *)
let q_ratio = Verify.Audit.q_ratio
let predicted_us = Verify.Audit.predicted_us

(* Rebuild a memoisable tuner result from a cache entry.  The search history
   is gone — only the answer survives — so [stop] is a placeholder; sweep
   records mark these keys ["replayed"] (via the registry above) and the
   diff skips their stop/trials fields. *)
let result_of_entry (e : Service.Result_cache.entry) =
  {
    Core.Tuner.best_config = e.config;
    best_runtime_us = e.runtime_us;
    best_gflops = e.gflops;
    measurements = e.trials;
    converged_at = 0;
    history = [];
    space_size = 0.0;
    faults = Core.Tuner.no_faults;
    stop = Core.Tuner.Converged;
  }

let prime_pair ~cache ~settings arch (model : Cnn.Models.t) =
  match cache with
  | None -> ()
  | Some cache ->
    List.iter
      (fun (l : Cnn.Layer.t) ->
        List.iter
          (fun algo ->
            match Cnn.Runner.find_result ~seed:settings.seed arch l.spec algo with
            | Some _ -> ()
            | None -> (
              let canonical = canonical_of arch l.spec algo in
              match Service.Result_cache.find cache ~canonical with
              | None -> ()
              | Some entry ->
                if
                  Cnn.Runner.prime_result ~seed:settings.seed arch l.spec algo
                    (result_of_entry entry)
                then Hashtbl.replace replayed canonical ()))
          (Cnn.Runner.candidates l))
      model.layers

let writeback ~cache ~settings arch (model : Cnn.Models.t) =
  match cache with
  | None -> ()
  | Some cache ->
    List.iter
      (fun (l : Cnn.Layer.t) ->
        List.iter
          (fun algo ->
            match Cnn.Runner.find_result ~seed:settings.seed arch l.spec algo with
            | None -> ()
            | Some (r : Core.Tuner.result) ->
              let canonical = canonical_of arch l.spec algo in
              let fresh (e : Service.Result_cache.entry option) =
                match e with
                | Some e ->
                  e.config <> r.best_config || e.runtime_us <> r.best_runtime_us
                | None -> true
              in
              if fresh (Service.Result_cache.find cache ~canonical) then
                Service.Result_cache.put cache
                  {
                    Service.Result_cache.key =
                      Service.Result_cache.key_of_canonical canonical;
                    canonical;
                    source = Service.Protocol.Src_tuned;
                    runtime_us = r.best_runtime_us;
                    gflops = r.best_gflops;
                    predicted_us = predicted_us arch l.spec r.best_config;
                    trials = r.measurements;
                    config = r.best_config;
                  })
          (Cnn.Runner.candidates l))
      model.layers

let record_of_timing arch (lt : Cnn.Runner.layer_timing) =
  let spec = lt.layer.spec in
  let base =
    {
      Gold.layer = lt.layer.name;
      spec = Conv.Conv_spec.canonical spec;
      algorithm = lt.ours_algorithm;
      config = "library";
      ours_us = lt.ours_us;
      predicted_us = lt.library_us;
      library_us = lt.library_us;
      library_algorithm = lt.library_algorithm;
      q_ratio = 0.0;
      stop = "library";
      trials = 0;
    }
  in
  match lt.ours_result with
  | None -> base
  | Some (r : Core.Tuner.result) ->
    let canonical = canonical_of arch spec r.best_config.algorithm in
    {
      base with
      config = Core.Config.to_compact r.best_config;
      predicted_us = predicted_us arch spec r.best_config;
      q_ratio = q_ratio arch spec r.best_config;
      stop =
        (if Hashtbl.mem replayed canonical then "replayed" else Gold.stop_token r.stop);
      trials = r.measurements;
    }

(* Distinct candidate memo keys of a model on one architecture — the unit of
   the live/warm accounting (repeated shapes within and across models share
   one key). *)
let candidate_keys arch (model : Cnn.Models.t) =
  let keys = Hashtbl.create 32 in
  List.iter
    (fun (l : Cnn.Layer.t) ->
      List.iter
        (fun algo -> Hashtbl.replace keys (canonical_of arch l.spec algo) (l.spec, algo))
        (Cnn.Runner.candidates l))
    model.layers;
  keys

let run_pair ?cache ~settings arch (model : Cnn.Models.t) =
  let t0 = Unix.gettimeofday () in
  prime_pair ~cache ~settings arch model;
  let keys = candidate_keys arch model in
  let warm =
    Hashtbl.fold
      (fun _ (spec, algo) n ->
        match Cnn.Runner.find_result ~seed:settings.seed arch spec algo with
        | Some _ -> n + 1
        | None -> n)
      keys 0
  in
  let timing =
    Cnn.Runner.time_model ~seed:settings.seed ~max_measurements:settings.budget
      ~backend:settings.backend arch model
  in
  writeback ~cache ~settings arch model;
  let gold =
    {
      Gold.meta =
        {
          Gold.model = model.name;
          arch = Gpu_sim.Arch.alias arch;
          seed = settings.seed;
          budget = settings.budget;
          backend = backend_token settings.backend;
        };
      layers = List.map (record_of_timing arch) timing.layers;
    }
  in
  {
    model;
    arch;
    gold;
    timing;
    wall_s = Unix.gettimeofday () -. t0;
    live = Hashtbl.length keys - warm;
    warm;
  }

let summary_table pairs =
  let table =
    Util.Table.create
      [ "model"; "arch"; "layers"; "live"; "warm"; "ours (us)"; "library (us)";
        "speedup"; "wall (s)" ]
  in
  List.iter
    (fun p ->
      Util.Table.add_row table
        [
          p.model.Cnn.Models.name;
          Gpu_sim.Arch.alias p.arch;
          string_of_int (List.length p.timing.layers);
          string_of_int p.live;
          string_of_int p.warm;
          Printf.sprintf "%.1f" p.timing.ours_total_us;
          Printf.sprintf "%.1f" p.timing.library_total_us;
          Util.Table.cell_f p.timing.speedup;
          Printf.sprintf "%.2f" p.wall_s;
        ])
    pairs;
  table
