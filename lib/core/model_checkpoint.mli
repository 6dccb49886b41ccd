(** Cost-model checkpoints — [Gbt.Booster] snapshots keyed by dataset size.

    Retraining the GBT cost model is the dominant per-round cost of a
    resumed search: the journal replays raw measurements, but without
    checkpoints every replayed round would refit the booster from scratch.
    This file (a [Util.Durable] sibling of the tune journal, conventionally
    [journal ^ ".ckpt"]) appends one snapshot per checkpointed retrain:

    {v c3 <TAB> n-samples <TAB> Booster.to_compact v}

    [n_samples] — the training-set size the booster was fitted on — is the
    key: during replay the tuner's dataset retraces the killed run's
    trajectory exactly, so "a checkpoint fitted on [n] samples" identifies
    the round uniquely, and because training is deterministic and the
    snapshot round-trips bit-for-bit, restoring it is indistinguishable
    from retraining.  The line version names the trainer: "c1" and "c2"
    lines date from when an exact-presort trainer existed beside the
    histogram one (c2 tagged which one wrote it) and are never restored —
    they count as undecodable, so their rounds retrain and land on the same
    bits.  A corrupt or truncated checkpoint file degrades
    gracefully: rounds without a surviving snapshot just retrain. *)

type entry = {
  n_samples : int;  (** [Cost_model.n_samples] when the booster was fitted *)
  snapshot : string;  (** [Gbt.Booster.to_compact] of the fitted booster *)
}

val kind : string
(** The [Util.Durable] kind tag ("gbt-checkpoint"). *)

val path_for : string -> string
(** The checkpoint path conventionally paired with a journal path
    ([journal ^ ".ckpt"]). *)

val to_line : entry -> string
val of_line : string -> entry option

val append : string -> entry -> unit

type load_result = {
  entries : entry list;
  dropped : int;
  reason : string option;
}

val recover : string -> load_result
(** Salvage + atomic repair, like [Tune_journal.recover]; warns once to
    stderr when records were dropped. *)

val to_table : entry list -> (int, string) Hashtbl.t
(** Snapshots keyed by [n_samples], later entries winning. *)
