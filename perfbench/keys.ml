(* The benchmark's inputs: the warm set (the pristine cache's content), the
   two disjoint cold lists, and the seeded request streams.  The warm set
   and the cold key sets do not depend on the workload seed; the seed
   decides which warm keys are asked, in which order, and the order of the
   cold lists. *)

type key = {
  arch : Gpu_sim.Arch.t;
  spec : Conv.Conv_spec.t;
  algorithm : Core.Config.algorithm;
  canonical : string;
  line : string;  (** the TUNE request line *)
}

let make_key arch spec algorithm =
  let req =
    { Service.Protocol.spec; arch; algorithm; pruned = true; deadline_ms = None }
  in
  {
    arch;
    spec;
    algorithm;
    canonical = Service.Protocol.canonical_of_tune req;
    line = Service.Protocol.render_tune req;
  }

let winograd = Core.Config.Winograd_dataflow 2

(* Every (model-zoo layer, architecture, algorithm) triple: direct always,
   Winograd where the layer is eligible.  Sorted by canonical so the pool
   is independent of model order. *)
let zoo_pool =
  lazy
    (let seen = Hashtbl.create 512 in
     let models =
       Cnn.Models.[ alexnet; squeezenet; vgg19; resnet18; resnet34; inception_v3; mobilenet ]
     in
     List.iter
       (fun (m : Cnn.Models.t) ->
         List.iter
           (fun (l : Cnn.Layer.t) ->
             let algos =
               Core.Config.Direct_dataflow
               :: (if Cnn.Layer.winograd_eligible l then [ winograd ] else [])
             in
             List.iter
               (fun arch ->
                 List.iter
                   (fun algo ->
                     let k = make_key arch l.spec algo in
                     if not (Hashtbl.mem seen k.canonical) then
                       Hashtbl.replace seen k.canonical k)
                   algos)
               Gpu_sim.Arch.all)
           m.layers)
       models;
     Hashtbl.fold (fun _ k acc -> k :: acc) seen []
     |> List.sort (fun a b -> compare a.canonical b.canonical)
     |> Array.of_list)

let shuffled ~seed a =
  let a = Array.copy a in
  Util.Rng.shuffle (Util.Rng.create seed) a;
  a

(* Fixed selection seeds: the key sets are part of the benchmark, not of a
   run, so that every seed times the same tuning work. *)
let pool_seed = 20210227

(* The cold-tunes list holds about one key per 1.25 s of [seconds] (one
   key takes 0.6-2.6 s to tune at 300 trials on a 2-core x86 host).  It
   and the mixed list are disjoint slices, from opposite ends, of one fixed
   shuffle of the zoo pool; the workload seed only orders each slice. *)
let cold_tunes_keys ~seconds = max 4 (seconds * 4 / 5)

let fixed_pool () = shuffled ~seed:pool_seed (Lazy.force zoo_pool)

let cold_list ~seed ~seconds =
  shuffled ~seed (Array.sub (fixed_pool ()) 0 (cold_tunes_keys ~seconds))

let mixed_cold_list ~seed ~n =
  let pool = fixed_pool () in
  shuffled ~seed:(seed + 1) (Array.sub pool (Array.length pool - n) n)

(* The warm set: synthetic shapes (never a zoo layer) over every
   architecture, direct and Winograd. *)
let warm_size = 2000

let warm_keys =
  lazy
    (let zoo = Hashtbl.create 512 in
     Array.iter (fun k -> Hashtbl.replace zoo k.canonical ()) (Lazy.force zoo_pool);
     let chans = [ 16; 24; 32; 48; 64; 96; 128; 160; 192; 256; 320; 384; 512 ] in
     let cands = ref [] in
     List.iter
       (fun cin ->
         List.iter
           (fun cout ->
             List.iter
               (fun size ->
                 List.iter
                   (fun k ->
                     let spec =
                       Conv.Conv_spec.square ~pad:(k / 2) ~c_in:cin ~size ~c_out:cout ~k ()
                     in
                     List.iter
                       (fun arch ->
                         cands := make_key arch spec Core.Config.Direct_dataflow :: !cands;
                         if k = 3 then cands := make_key arch spec winograd :: !cands)
                       Gpu_sim.Arch.all)
                   [ 1; 3; 5 ])
               [ 7; 13; 14; 27; 28; 56 ])
           chans)
       chans;
     let cands = shuffled ~seed:pool_seed (Array.of_list (List.rev !cands)) in
     Array.to_list cands
     |> List.filter (fun k -> not (Hashtbl.mem zoo k.canonical))
     |> List.filteri (fun i _ -> i < warm_size)
     |> Array.of_list)

(* A warm-set record built through public functions only: the analytic best
   configuration of the pruned space, priced noise-free and "measured" once
   on the simulated GPU. *)
let warm_entry k =
  let space = Core.Search_space.make ~pruned:true k.arch k.spec k.algorithm in
  let config, _ = Core.Supervisor.analytic_best space in
  let runtime_us = Core.Tuner.measure_config k.arch k.spec config in
  {
    Service.Result_cache.key = Service.Result_cache.key_of_canonical k.canonical;
    canonical = k.canonical;
    source = Service.Protocol.Src_tuned;
    runtime_us;
    gflops = Core.Tuner.nominal_gflops k.spec ~runtime_us;
    predicted_us = Verify.Audit.predicted_us k.arch k.spec config;
    trials = 1;
    config;
  }

(* The seeded warm stream: uniform draws over the warm set. *)
let warm_stream ~seed =
  let rng = Util.Rng.create ((seed * 7919) + 1) in
  let n = Array.length (Lazy.force warm_keys) in
  fun () -> Util.Rng.int rng n
