(** The cross-architecture fleet sweep behind [conv-io gold] and
    [conv-io regress].

    One sweep unit is a (model, architecture) pair: every layer of the model
    is timed through [Cnn.Runner.time_model] — tuned direct and Winograd
    dataflows versus the simulated vendor library — and distilled into the
    {!Gold.layer_record}s a golden file holds: best configuration, measured
    and analytically-predicted runtime, library baseline, Q-bound ratio and
    stop reason.

    Warm layer: before timing, every candidate (layer, algorithm) key that a
    [Service.Result_cache] already holds is primed into the runner's memo
    table ([Cnn.Runner.prime_result]), so a regress run replays the fleet
    from the shared cache instead of re-tuning it; records answered this way
    carry [stop = "replayed"].  Live-tuned results are written back, so
    [gold] leaves behind a cache that makes the next [regress] warm. *)

type settings = {
  seed : int;
  budget : int;  (** measurement budget per tuning run *)
  backend : Cnn.Runner.backend;
}

val default_settings : settings
(** seed 0, budget 120 measurements, cuDNN backend — the fleet contract;
    golden files embed these in their meta record. *)

val backend_token : Cnn.Runner.backend -> string
(** ["cudnn"] / ["miopen"]. *)

val generation : settings -> string
(** The [Service.Result_cache] generation string for these settings and
    [Core.Cost_model.trainer] — changing any setting or the trainer
    invalidates the warm layer instead of replaying results measured under
    a different contract. *)

val fleet_models : unit -> Cnn.Models.t list
(** The evaluation networks plus MobileNet-v1 — the models the fleet
    covers. *)

val fleet_arches : unit -> Gpu_sim.Arch.t list
(** [Gpu_sim.Arch.all]: 1080ti, v100, titanx, gfx906. *)

val reset_replays : unit -> unit
(** Forgets which memo keys were served from the result cache.  The harness
    calls it next to [Cnn.Runner.clear_cache] — the two tables describe the
    same process-lifetime memo and must reset together. *)

type pair = {
  model : Cnn.Models.t;
  arch : Gpu_sim.Arch.t;
  gold : Gold.file;  (** the records to write (gold) or diff (regress) *)
  timing : Cnn.Runner.model_timing;
  wall_s : float;  (** host wall-clock spent sweeping this pair *)
  live : int;  (** candidate keys tuned live during this pair *)
  warm : int;  (** candidate keys answered from memo or result cache *)
}

val run_pair :
  ?cache:Service.Result_cache.t -> settings:settings -> Gpu_sim.Arch.t ->
  Cnn.Models.t -> pair
(** Sweeps one pair.  With [cache], primes the runner from it first and
    writes live-tuned results back (idempotently: an entry identical to the
    cached one is not re-appended).  Within one process, keys already
    memoised by earlier pairs (repeated shapes across models) count as
    [warm]. *)

val summary_table : pair list -> Util.Table.t
(** Model / arch / layers / live / warm / ours / library / speedup / wall —
    the fleet report printed by both harness modes and the model zoo. *)
