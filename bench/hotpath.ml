(* Hot-path benchmark: the histogram GBT trainer vs the exhaustive presort
   reference (test/ref), and the frontier pebble oracle vs the legacy
   hashtable engine.

   Usage:
     dune exec bench/hotpath.exe            full sweep: GBT rebuild times at
                                            growing dataset sizes, tuner
                                            best runtimes on the ResNet layer
                                            set against the recorded presort-
                                            trainer bests, legacy-vs-frontier
                                            oracle differential over the whole
                                            sandwich smoke grid plus a
                                            24-vertex instance only the frontier
                                            engine can solve; asserts the claims
                                            and writes BENCH_hotpath.json
     dune exec bench/hotpath.exe -- smoke   <10s sanity check (no file output):
                                            hist-vs-reference prediction ranking
                                            agreement and q_opt equality of the
                                            two oracle engines on small
                                            instances.  HOTPATH_DEEP=1 extends
                                            it with a 2k-sample GBT speedup
                                            check and the 24-vertex oracle
                                            differential (the @hotpath-deep
                                            alias).

   The smoke mode backs the [@hotpath-smoke] dune alias in the default
   runtest, so a regression in either rewrite fails CI; the JSON records the
   before/after trajectory future PRs must not regress. *)

let arch = Gpu_sim.Arch.v100

let layers =
  [
    ("resnet-conv2", Conv.Conv_spec.make ~c_in:64 ~h_in:56 ~w_in:56 ~c_out:64 ~k_h:3 ~k_w:3 ~pad:1 ());
    ("resnet-conv3", Conv.Conv_spec.make ~c_in:128 ~h_in:28 ~w_in:28 ~c_out:128 ~k_h:3 ~k_w:3 ~pad:1 ());
    ("resnet-conv4", Conv.Conv_spec.make ~c_in:256 ~h_in:14 ~w_in:14 ~c_out:256 ~k_h:3 ~k_w:3 ~pad:1 ());
  ]

let time f =
  let t0 = Unix.gettimeofday () in
  let result = f () in
  (result, Unix.gettimeofday () -. t0)

let fail fmt = Printf.ksprintf (fun m -> prerr_endline ("FAIL: " ^ m); exit 1) fmt

(* A synthetic tuning-shaped regression problem: continuous features, a
   smooth nonlinear target with mild noise — enough structure for both
   trainers to learn the same ranking. *)
let synthetic_dataset ~n ~n_features ~seed =
  let rng = Util.Rng.create seed in
  let data = Gbt.Dataset.create ~n_features in
  for _ = 1 to n do
    let x = Array.init n_features (fun _ -> Util.Rng.float rng 1.0) in
    let y =
      (10.0 *. x.(0))
      +. (5.0 *. x.(1) *. x.(1))
      +. (3.0 *. x.(0) *. x.(min 2 (n_features - 1)))
      +. (2.0 *. sin (6.28 *. x.(min 3 (n_features - 1))))
      +. Util.Rng.float rng 0.5
    in
    Gbt.Dataset.add data x y
  done;
  data

let predictions booster data =
  Array.init (Gbt.Dataset.length data) (fun i ->
      Gbt.Booster.predict booster (Gbt.Dataset.features data i))

(* Train the presort reference and the histogram trainer on the same data;
   return (exact_s, hist_s, rank correlation of their predictions over the
   training rows). *)
let gbt_rebuild_pair ~n ~seed =
  let data = synthetic_dataset ~n ~n_features:8 ~seed in
  let exact, exact_s = time (fun () -> Gbt_ref.train Gbt.Booster.default_params data) in
  let hist, hist_s =
    time (fun () -> Gbt.Booster.train ~domains:1 Gbt.Booster.default_params data)
  in
  let rho = Util.Stats.spearman (predictions exact data) (predictions hist data) in
  (exact_s, hist_s, rho)

let describe_verdict = function
  | Verify.Oracle.Optimal { q_opt; expanded; _ } ->
    Printf.sprintf "optimal q=%d after %d states" q_opt expanded
  | Verify.Oracle.Budget_exhausted { expanded } ->
    Printf.sprintf "budget exhausted at %d states" expanded

(* Legacy and frontier engines on one (instance, S) pair; asserts equal
   q_opt and a replay-valid frontier witness. *)
let oracle_pair (inst : Verify.Sandwich.instance) ~s =
  let legacy, legacy_s = time (fun () -> Verify.Oracle.solve_legacy inst.graph ~s) in
  let frontier, frontier_s = time (fun () -> Verify.Oracle.solve inst.graph ~s) in
  match (legacy, frontier) with
  | Verify.Oracle.Optimal l, Verify.Oracle.Optimal f ->
    if l.q_opt <> f.q_opt then
      fail "%s S=%d: legacy q_opt %d <> frontier q_opt %d" inst.name s l.q_opt f.q_opt;
    (match Pebble.Pebble_game.trace inst.graph ~s f.moves with
    | Error msg -> fail "%s S=%d: frontier witness illegal: %s" inst.name s msg
    | Ok final ->
      if not (Pebble.Pebble_game.complete inst.graph final) then
        fail "%s S=%d: frontier witness incomplete" inst.name s;
      if Pebble.Pebble_game.state_io final <> f.q_opt then
        fail "%s S=%d: frontier witness I/O %d <> q_opt %d" inst.name s
          (Pebble.Pebble_game.state_io final) f.q_opt);
    (f.q_opt, l.expanded, legacy_s, f.expanded, frontier_s)
  | l, f ->
    fail "%s S=%d: engines disagree (legacy: %s, frontier: %s)" inst.name s
      (describe_verdict l) (describe_verdict f)

(* The deep differential: a 24-vertex Winograd tile where the legacy engine
   exhausts its default state budget and the frontier engine proves q_opt. *)
let deep_instance () =
  Verify.Sandwich.winograd_instance ~tiles_w:1 ~tiles_h:1 ~cin:4 ~cout:1 ~e:1 ~r:1 ()

let deep_s = 4
let deep_frontier_budget = 8_000_000

let oracle_deep_differential () =
  let inst = deep_instance () in
  let legacy, legacy_s =
    time (fun () -> Verify.Oracle.solve_legacy inst.graph ~s:deep_s)
  in
  let frontier, frontier_s =
    time (fun () ->
        Verify.Oracle.solve ~budget:deep_frontier_budget ~want_witness:false inst.graph
          ~s:deep_s)
  in
  match (legacy, frontier) with
  | Verify.Oracle.Budget_exhausted { expanded = le }, Verify.Oracle.Optimal f ->
    (inst.name, le, legacy_s, f.q_opt, f.expanded, frontier_s)
  | l, f ->
    fail "deep differential: expected legacy exhaustion + frontier optimum, got \
          legacy: %s, frontier: %s"
      (describe_verdict l) (describe_verdict f)

let tune_layer ~max_measurements (name, spec) =
  let space = Core.Search_space.make arch spec Core.Config.Direct_dataflow in
  let result, wall = time (fun () -> Core.Tuner.tune ~seed:0 ~max_measurements ~space ()) in
  (name, result, wall)

let json_escape = String.map (fun c -> if c = '"' || c = '\\' then '_' else c)

(* Best runtimes (us) the same tunes reached when the cost model trained
   with exhaustive presort splits (seed 0, 150 measurements, v100): the
   last recording before the histogram trainer became the only one. *)
let presort_bests =
  [ ("resnet-conv2", 19.355); ("resnet-conv3", 19.355); ("resnet-conv4", 25.3115) ]

(* The tuner is stochastic search over an approximate model under either
   trainer, so equivalence is "best runtimes within [tune_tolerance]
   relative" of the recorded presort bests. *)
let tune_tolerance = 0.05

(* Presort-vs-hist rows of the last recording that ran both trainers inside
   the tuner; kept verbatim in the JSON's "history" key. *)
let history_json =
  {|  "history": {"note": "tuner runs under both split methods, recorded while the exact presort trainer was still selectable; exact_best_us are the presort_bests above", "tuner_equivalence": [
    {"layer": "resnet-conv2", "exact_best_us": 19.3550, "hist_best_us": 19.3550, "rel_diff": 0.0000, "exact_config": "direct CHW tile=8x14x8 threads=8x7x8 unroll=4 vec=4 db=true", "hist_config": "direct CHW tile=8x14x8 threads=8x7x8 unroll=4 vec=4 db=true"},
    {"layer": "resnet-conv3", "exact_best_us": 19.3550, "hist_best_us": 20.2722, "rel_diff": 0.0474, "exact_config": "direct CHW tile=16x7x8 threads=16x7x2 unroll=4 vec=4 db=true", "hist_config": "direct CHW tile=16x8x8 threads=16x4x8 unroll=4 vec=4 db=true"},
    {"layer": "resnet-conv4", "exact_best_us": 25.3115, "hist_best_us": 24.6560, "rel_diff": 0.0259, "exact_config": "direct CHW tile=14x7x8 threads=7x7x8 unroll=8 vec=1 db=true", "hist_config": "direct CHW tile=7x7x8 threads=7x7x8 unroll=8 vec=4 db=false"}
  ]},
|}

let full () =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\n  \"bench\": \"hotpath\",\n";

  (* --- GBT rebuild times --- *)
  print_endline "GBT rebuild, presort reference vs histogram (60 rounds, 8 features, 1 domain):";
  let sizes = [ 512; 2048; 4096 ] in
  let gbt_rows =
    List.map
      (fun n ->
        let exact_s, hist_s, rho = gbt_rebuild_pair ~n ~seed:42 in
        let speedup = exact_s /. hist_s in
        Printf.printf "  n=%-5d exact %6.3fs  hist %6.3fs  speedup %5.2fx  rank-corr %.4f\n%!"
          n exact_s hist_s speedup rho;
        if rho < 0.95 then
          fail "GBT rank correlation %.4f < 0.95 at n=%d" rho n;
        if n >= 2048 && speedup < 5.0 then
          fail "hist speedup %.2fx < 5x at n=%d" speedup n;
        Printf.sprintf
          "    {\"n\": %d, \"exact_s\": %.4f, \"hist_s\": %.4f, \"speedup\": %.2f, \"rank_correlation\": %.4f}"
          n exact_s hist_s speedup rho)
      sizes
  in
  Buffer.add_string buf "  \"gbt_rebuild\": [\n";
  Buffer.add_string buf (String.concat ",\n" gbt_rows);
  Buffer.add_string buf "\n  ],\n";

  (* --- Tuner equivalence on the scaling layer set --- *)
  let max_measurements = 150 in
  Printf.printf "Tuner best runtimes vs recorded presort bests (%d measurements per layer):\n%!"
    max_measurements;
  let tuner_rows =
    List.map
      (fun layer ->
        let name, r, wall = tune_layer ~max_measurements layer in
        let presort = List.assoc name presort_bests in
        let rel = abs_float (r.best_runtime_us -. presort) /. presort in
        Printf.printf "  %-14s best %9.4f us (%.1fs)  presort best %9.4f us  rel diff %.4f\n%!"
          name r.best_runtime_us wall presort rel;
        if rel > tune_tolerance then
          fail "%s: best runtime deviates %.4f > %.2f tolerance from the presort best" name
            rel tune_tolerance;
        Printf.sprintf
          "    {\"layer\": \"%s\", \"best_us\": %.4f, \"presort_best_us\": %.4f, \
           \"rel_diff\": %.4f, \"config\": \"%s\", \"wall_s\": %.2f}"
          (json_escape name) r.best_runtime_us presort rel
          (json_escape (Core.Config.to_string r.best_config))
          wall)
      layers
  in
  Buffer.add_string buf
    (Printf.sprintf "  \"tuner_equivalence\": {\"tolerance\": %.2f, \"layers\": [\n"
       tune_tolerance);
  Buffer.add_string buf (String.concat ",\n" tuner_rows);
  Buffer.add_string buf "\n  ]},\n";

  (* --- Oracle: full smoke grid, legacy vs frontier --- *)
  print_endline "Oracle differential over the sandwich smoke grid:";
  let checked = ref 0 in
  let legacy_total = ref 0.0 and frontier_total = ref 0.0 in
  let oracle_rows =
    List.concat_map
      (fun ((inst : Verify.Sandwich.instance), ss) ->
        List.map
          (fun s ->
            let q_opt, le, ls, fe, fs = oracle_pair inst ~s in
            incr checked;
            legacy_total := !legacy_total +. ls;
            frontier_total := !frontier_total +. fs;
            Printf.sprintf
              "    {\"instance\": \"%s\", \"s\": %d, \"q_opt\": %d, \"legacy_expanded\": %d, \
               \"legacy_s\": %.4f, \"frontier_expanded\": %d, \"frontier_s\": %.4f}"
              (json_escape inst.name) s q_opt le ls fe fs)
          ss)
      (Verify.Sandwich.grid ~deep:false)
  in
  Printf.printf
    "  %d (instance, S) pairs: q_opt equal everywhere; legacy %.2fs total, frontier %.2fs total\n%!"
    !checked !legacy_total !frontier_total;
  Buffer.add_string buf "  \"oracle_smoke_grid\": [\n";
  Buffer.add_string buf (String.concat ",\n" oracle_rows);
  Buffer.add_string buf "\n  ],\n";

  (* --- Oracle: the instance only the frontier engine can solve --- *)
  let name, le, ls, q, fe, fs = oracle_deep_differential () in
  Printf.printf
    "Oracle deep differential on %s (24 vertices, S=%d):\n\
    \  legacy:   exhausted its %d-state default budget (%d expanded, %.2fs)\n\
    \  frontier: optimal q_opt=%d after %d states (%.2fs)\n%!"
    name deep_s Verify.Oracle.default_budget le ls q fe fs;
  Buffer.add_string buf
    (Printf.sprintf
       "  \"oracle_deep\": {\"instance\": \"%s\", \"s\": %d, \"vertices\": 24, \
        \"legacy_budget\": %d, \"legacy_exhausted\": true, \"legacy_s\": %.4f, \
        \"frontier_q_opt\": %d, \"frontier_expanded\": %d, \"frontier_s\": %.4f},\n"
       (json_escape name) deep_s Verify.Oracle.default_budget ls q fe fs);
  Buffer.add_string buf history_json;
  Buffer.add_string buf
    "  \"note\": \"GBT: 60-round boosters on a synthetic 8-feature regression, single domain, \
     fixed seed, exact = the presort reference trainer; tuner: best runtimes within the \
     documented tolerance of the recorded presort-trainer bests; \
     oracle: q_opt asserted equal on every smoke-grid pair, and the 24-vertex Winograd tile \
     is solvable only by the frontier engine at the default budget\"\n}\n";
  Util.Durable.write_atomic "BENCH_hotpath.json" (Buffer.contents buf);
  print_endline "wrote BENCH_hotpath.json"

let smoke () =
  let deep = Sys.getenv_opt "HOTPATH_DEEP" <> None in
  (* GBT: the histogram trainer must rank predictions like the reference. *)
  let _, _, rho = gbt_rebuild_pair ~n:600 ~seed:7 in
  if rho < 0.95 then fail "GBT smoke rank correlation %.4f < 0.95" rho;
  (* Oracle: engines agree on a handful of small instances. *)
  let small =
    [
      (Verify.Sandwich.matmul_instance ~m:2 ~k:2 ~n:1 (), 3);
      (Verify.Sandwich.conv_instance ~w:2 ~h:2 ~kw:2 ~kh:2 ~cin:1 ~cout:1 (), 4);
      (Verify.Sandwich.winograd_instance ~tiles_w:2 ~tiles_h:1 ~cin:1 ~cout:1 ~e:1 ~r:1 (), 3);
    ]
  in
  List.iter (fun (inst, s) -> ignore (oracle_pair inst ~s)) small;
  if deep then begin
    let exact_s, hist_s, _ = gbt_rebuild_pair ~n:2048 ~seed:42 in
    if exact_s /. hist_s < 5.0 then
      fail "deep: hist speedup %.2fx < 5x at n=2048" (exact_s /. hist_s);
    let _, le, _, q, fe, _ = oracle_deep_differential () in
    Printf.printf
      "  deep: 24-vertex differential ok (legacy exhausted at %d, frontier q=%d after %d)\n%!"
      le q fe
  end;
  Printf.printf
    "hotpath-smoke OK: hist ranks like the presort reference (rho %.3f), oracle engines \
     agree on %d instances%s\n%!"
    rho (List.length small)
    (if deep then " + deep differential" else "")

let () =
  match Array.to_list Sys.argv |> List.tl with
  | [] -> full ()
  | [ "smoke" ] -> smoke ()
  | _ ->
    prerr_endline "usage: hotpath.exe [smoke]";
    exit 1
