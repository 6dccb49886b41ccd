(* Exhaustive presort split finding — the reference for [Gbt.Tree.fit_hist].

   Every node scans every one of its samples per feature in value order and
   tries a threshold between each pair of distinct neighbours, so the chosen
   split is the best one over all thresholds, not only the bin cuts.  Gain,
   leaf weight and tie-breaking follow the same XGBoost formulas as the
   histogram fitter; on data where every feature fits its bin budget and
   every float sum is exact, the two fitters must agree bit for bit.

   Per-feature sorted index orders are computed once per tree and filtered
   down the recursion (children never re-sort).  Sequential: the reference
   only has to be right. *)

type tree = Leaf of float | Split of { feature : int; threshold : float; left : tree; right : tree }

let leaf_weight (params : Gbt.Tree.params) g h = -.g /. (h +. params.lambda)
let score (params : Gbt.Tree.params) g h = g *. g /. (h +. params.lambda)

(* Best split of a node on one feature, given the node's indices already
   sorted by that feature's value: scan prefix gradient sums and place
   thresholds between distinct consecutive values. *)
let best_split_on_sorted (params : Gbt.Tree.params) ~value ~grad ~hess ~sorted =
  let n = Array.length sorted in
  let g_total = Array.fold_left (fun acc i -> acc +. grad.(i)) 0.0 sorted in
  let h_total = Array.fold_left (fun acc i -> acc +. hess.(i)) 0.0 sorted in
  let base = score params g_total h_total in
  let best = ref None in
  let g_left = ref 0.0 and h_left = ref 0.0 in
  for pos = 0 to n - 2 do
    let i = sorted.(pos) in
    g_left := !g_left +. grad.(i);
    h_left := !h_left +. hess.(i);
    let v = value i and v' = value sorted.(pos + 1) in
    if v < v' then begin
      let gain =
        (0.5
        *. (score params !g_left !h_left
           +. score params (g_total -. !g_left) (h_total -. !h_left)
           -. base))
        -. params.gamma
      in
      match !best with
      | Some (best_gain, _, _) when best_gain >= gain -> ()
      | _ -> best := Some (gain, (v +. v') /. 2.0, pos + 1)
    end
  done;
  match !best with
  | Some (gain, threshold, split_pos) when gain > 0.0 -> Some (gain, threshold, split_pos)
  | _ -> None

let fit_tree (params : Gbt.Tree.params) data ~grad ~hess =
  let n = Gbt.Dataset.length data in
  if Array.length grad <> n || Array.length hess <> n then
    invalid_arg "Gbt_ref.fit_tree: gradient arity mismatch";
  let n_features = Gbt.Dataset.n_features data in
  let value f i = (Gbt.Dataset.features data i).(f) in
  (* Ties broken by index so every feature's order is unique. *)
  let root_sorted =
    Array.init n_features (fun f ->
        let order = Array.init n Fun.id in
        Array.sort
          (fun i j ->
            let c = compare (value f i) (value f j) in
            if c <> 0 then c else compare i j)
          order;
        order)
  in
  (* [node] is the node's index set in insertion order; [sorted] holds the
     same set once per feature, each in that feature's value order. *)
  let rec build node sorted depth =
    let m = Array.length node in
    let g = Array.fold_left (fun acc i -> acc +. grad.(i)) 0.0 node in
    let h = Array.fold_left (fun acc i -> acc +. hess.(i)) 0.0 node in
    let as_leaf () = Leaf (leaf_weight params g h) in
    if depth >= params.max_depth || m < params.min_samples then as_leaf ()
    else begin
      (* Strictly-greater gain wins, features in index order. *)
      let best = ref None in
      Array.iteri
        (fun f sorted_f ->
          match best_split_on_sorted params ~value:(value f) ~grad ~hess ~sorted:sorted_f with
          | None -> ()
          | Some (gain, threshold, split_pos) -> begin
            match !best with
            | Some (best_gain, _, _, _) when best_gain >= gain -> ()
            | _ -> best := Some (gain, f, threshold, split_pos)
          end)
        sorted;
      match !best with
      | None -> as_leaf ()
      | Some (_, feature, threshold, split_pos) ->
        let left_mask = Array.make n false in
        for pos = 0 to split_pos - 1 do
          left_mask.(sorted.(feature).(pos)) <- true
        done;
        (* Filtering a sorted order preserves it, so children inherit their
           per-feature orders in O(m) instead of re-sorting. *)
        let filter keep arr =
          let out = Array.make (if keep then split_pos else m - split_pos) 0 in
          let j = ref 0 in
          Array.iter
            (fun i ->
              if left_mask.(i) = keep then begin
                out.(!j) <- i;
                incr j
              end)
            arr;
          out
        in
        let left = build (filter true node) (Array.map (filter true) sorted) (depth + 1) in
        let right = build (filter false node) (Array.map (filter false) sorted) (depth + 1) in
        Split { feature; threshold; left; right }
    end
  in
  build (Array.init n Fun.id) root_sorted 0

let rec predict tree x =
  match tree with
  | Leaf w -> w
  | Split { feature; threshold; left; right } ->
    if x.(feature) <= threshold then predict left x else predict right x

(* The reference tree in [Gbt.Tree.to_compact]'s encoding, so results load
   into the library's own types and compare by string. *)
let to_compact tree =
  let rec tokens acc = function
    | Leaf w -> Printf.sprintf "L:%h" w :: acc
    | Split { feature; threshold; left; right } ->
      tokens (tokens (Printf.sprintf "S:%d:%h" feature threshold :: acc) left) right
  in
  String.concat " " (List.rev (tokens [] tree))

let fit params data ~grad ~hess =
  Option.get (Gbt.Tree.of_compact (to_compact (fit_tree params data ~grad ~hess)))

(* The boosting loop of [Gbt.Booster.train] around the reference fitter:
   same base score, gradients, shrinkage and encoding; no row subsampling. *)
let train (params : Gbt.Booster.params) data =
  let n = Gbt.Dataset.length data in
  if n = 0 then invalid_arg "Gbt_ref.train: empty dataset";
  if params.subsample <> 1.0 then invalid_arg "Gbt_ref.train: subsampling unsupported";
  let targets = Gbt.Dataset.targets data in
  let base_score = Util.Stats.mean targets in
  let predictions = Array.make n base_score in
  let hess = Array.make n 1.0 in
  let trees =
    List.init params.rounds (fun _ ->
        let grad = Array.init n (fun i -> predictions.(i) -. targets.(i)) in
        let tree = fit_tree params.tree data ~grad ~hess in
        for i = 0 to n - 1 do
          predictions.(i) <-
            predictions.(i)
            +. (params.learning_rate *. predict tree (Gbt.Dataset.features data i))
        done;
        to_compact tree)
  in
  Option.get
    (Gbt.Booster.of_compact
       (String.concat "\t"
          (Printf.sprintf "gbt1\t%h\t%h\t%d" base_score params.learning_rate params.rounds
          :: trees)))
