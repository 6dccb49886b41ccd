(** Learning-based cost model (Section 6.1's "Cost Model" component).

    Wraps the gradient-boosted trees of [Gbt] around configuration feature
    vectors.  Targets are log-runtimes (multiplicative errors matter for
    ranking kernels).  Until the first [retrain] the model is uninformative
    and predicts a constant, so the tuner's first round is effectively random
    — matching how TVM's tuner bootstraps. *)

type t

val create : Conv.Conv_spec.t -> t
(** An untrained model; every {!retrain} fits [Gbt.Booster.default_params]. *)

val trainer : string
(** Stable tag ("gbt-hist") naming the trainer {!retrain} runs.  Tuned
    results depend on it, so the service and fleet result caches fold it
    into their generation strings: changing the trainer must change the
    tag, which makes every cached answer of the old trainer read as
    stale. *)

val add_measurement : t -> Config.t -> float -> unit
(** [add_measurement m config runtime_us] appends a training sample.  Raises
    [Invalid_argument] on non-finite or non-positive runtimes. *)

val add_failure : t -> Config.t -> unit
(** Appends the configuration as a penalized "invalid" sample at
    {!failure_penalty_us}: failed measurements steer the model away from
    their region instead of aborting the tuning round. *)

val failure_penalty_us : float
(** The penalty runtime (1e7 us) recorded for failed configurations — far
    above any measurable kernel so the model ranks them last. *)

val n_failures : t -> int
(** Number of penalized entries added via [add_failure]. *)

val n_samples : t -> int
(** Total training samples, including penalized failures. *)

val retrain : ?rng:Util.Rng.t -> ?domains:int -> t -> unit
(** Refits the booster on everything measured so far; no-op when empty.
    [domains] is forwarded to [Gbt.Booster.train]; the refit model is
    bit-identical at every domain count. *)

val predict_runtime_us : t -> Config.t -> float
(** Predicted runtime; a large constant before any training. *)

val trained : t -> bool

val snapshot : t -> string option
(** [Gbt.Booster.to_compact] of the current booster; [None] before the
    first {!retrain}.  Because training is deterministic and the encoding
    round-trips every float bit-for-bit, a snapshot taken after fitting on
    [n] samples stands in exactly for "retrain on those [n] samples". *)

val restore : t -> string -> bool
(** Installs a {!snapshot} as the current booster; [false] (and no change)
    when the snapshot does not parse.  Predictions after a successful
    restore are bit-identical to the model the snapshot was taken from. *)

val rmse_log : t -> float
(** Training RMSE in log-space, for diagnostics; 0 before training. *)
