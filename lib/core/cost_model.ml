type t = {
  spec : Conv.Conv_spec.t;
  data : Gbt.Dataset.t;
  mutable booster : Gbt.Booster.t option;
  mutable n_failed : int;
}

let trainer = "gbt-hist"

let create spec =
  { spec; data = Gbt.Dataset.create ~n_features:Config.n_features; booster = None;
    n_failed = 0 }

let add_measurement t cfg runtime_us =
  if (not (Float.is_finite runtime_us)) || runtime_us <= 0.0 then
    invalid_arg "Cost_model.add_measurement: non-finite or non-positive runtime";
  Gbt.Dataset.add t.data (Config.features t.spec cfg) (log runtime_us)

(* Failed configurations still inform the model: they enter the dataset at a
   penalty runtime far above anything measurable, steering the explorer away
   from the region without aborting the round. *)
let failure_penalty_us = 1.0e7

let add_failure t cfg =
  t.n_failed <- t.n_failed + 1;
  Gbt.Dataset.add t.data (Config.features t.spec cfg) (log failure_penalty_us)

let n_failures t = t.n_failed
let n_samples t = Gbt.Dataset.length t.data

let retrain ?rng ?domains t =
  if Gbt.Dataset.length t.data > 0 then
    t.booster <- Some (Gbt.Booster.train ?rng ?domains Gbt.Booster.default_params t.data)

let predict_runtime_us t cfg =
  match t.booster with
  | None -> 1.0e9
  | Some booster -> exp (Gbt.Booster.predict booster (Config.features t.spec cfg))

let trained t = t.booster <> None

let snapshot t = Option.map Gbt.Booster.to_compact t.booster

let restore t s =
  match Gbt.Booster.of_compact s with
  | Some booster ->
    t.booster <- Some booster;
    true
  | None -> false

let rmse_log t =
  match t.booster with None -> 0.0 | Some b -> Gbt.Booster.train_rmse b t.data
