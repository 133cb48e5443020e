(* zapd load generator: replay the suite against a service engine at
   concurrency 1/8/64, cold cache vs warm cache.

   The workload is every suite benchmark twice over — a greedy c2+f3
   Run and a search-planned Compile — replicated so the widest
   concurrency level has real fan-out, issued as one Api.Batch (the
   engine spreads a batch over its domain pool).  Each concurrency
   level gets a fresh engine: the first replay is the cold pass (every
   plan computed), the second replays the identical batch warm (every
   plan served from the sharded LRU cache).

   Three properties are load-bearing and fail the bench:

   - determinism: the rendered responses are byte-identical cold vs
     warm and across every concurrency level — the cache and the pool
     must not leak into replies;
   - warm hit rate ≥ 90%: the replay is served from cache;
   - warm search avoids re-planning: the engine's plan-computed
     counter does not advance during any warm pass.

   The baseline is BENCH_zapd_throughput.json — unlike the
   model-driven BENCH files this one carries wall-clock, so only the
   structural fields (hit rates, counter deltas, request counts) are
   expected to diff clean across machines. *)

module Api = Service.Api

let concurrencies = [ 1; 8; 64 ]

let benches () = if !Harness.tiny_mode then [ "ep"; "frac" ] else
    List.map (fun b -> b.Suite.name) Suite.all

(* One replica of the workload: every benchmark as a greedy run and a
   search compile, on the default target. *)
let workload_once () =
  List.concat_map
    (fun name ->
      let b = Option.get (Suite.by_name name) in
      let source = Api.Bench { name; tile = Harness.tile_of b } in
      let greedy = Api.default_compile_opts in
      let search = { greedy with Api.plan = Api.Search } in
      [
        Api.Run
          { source; opts = greedy; target = Api.default_target; spmd = false; native = false };
        Api.Compile { source; opts = search; target = Api.default_target };
      ])
    (benches ())

let workload () =
  let once = workload_once () in
  let reps = if !Harness.tiny_mode then 2 else 6 in
  List.concat (List.init reps (fun _ -> once))

type pass = {
  concurrency : int;
  phase : string;  (* "cold" | "warm" *)
  requests : int;
  wall_s : float;
  req_per_s : float;
  latency_ms : float;  (* mean per-request wall-clock *)
  hits : int;  (* cache counter deltas over the pass *)
  misses : int;
  hit_rate : float;
  plans_computed : int;
  compiles_computed : int;
}

let pass_json p =
  Obs.Json.Obj
    [
      ("concurrency", Obs.Json.Int p.concurrency);
      ("phase", Obs.Json.String p.phase);
      ("requests", Obs.Json.Int p.requests);
      ("wall_s", Obs.Json.Float p.wall_s);
      ("req_per_s", Obs.Json.Float p.req_per_s);
      ("latency_ms", Obs.Json.Float p.latency_ms);
      ("cache_hits", Obs.Json.Int p.hits);
      ("cache_misses", Obs.Json.Int p.misses);
      ("hit_rate", Obs.Json.Float p.hit_rate);
      ("plans_computed", Obs.Json.Int p.plans_computed);
      ("compiles_computed", Obs.Json.Int p.compiles_computed);
    ]

let columns : pass Harness.column list =
  [
    ("conc", 5, fun p -> string_of_int p.concurrency);
    ("phase", -5, fun p -> p.phase);
    ("requests", 9, fun p -> string_of_int p.requests);
    ("wall s", 8, fun p -> Printf.sprintf "%.2f" p.wall_s);
    ("req/s", 10, fun p -> Printf.sprintf "%.1f" p.req_per_s);
    ("latency ms", 12, fun p -> Printf.sprintf "%.3f" p.latency_ms);
    ("hits", 6, fun p -> string_of_int p.hits);
    ("miss", 6, fun p -> string_of_int p.misses);
    ("hit-rate", 9, fun p -> Printf.sprintf "%8.1f%%" (100.0 *. p.hit_rate));
    ("plans", 6, fun p -> string_of_int p.plans_computed);
  ]

(* Run one batch and return (rendered responses, pass row). *)
let run_pass engine ~concurrency ~phase reqs =
  let s0 = Service.Engine.server_stats engine in
  let t0 = Unix.gettimeofday () in
  let resp = Service.Engine.handle engine (Api.Batch reqs) in
  let wall_s = Unix.gettimeofday () -. t0 in
  let s1 = Service.Engine.server_stats engine in
  let rendered =
    match resp with
    | Api.Batch_reply rs ->
        List.map
          (fun r -> Obs.Json.to_string (Api.response_to_json r))
          rs
    | other -> [ Obs.Json.to_string (Api.response_to_json other) ]
  in
  let requests = List.length reqs in
  let hits = s1.Api.cache.Api.hits - s0.Api.cache.Api.hits in
  let misses = s1.Api.cache.Api.misses - s0.Api.cache.Api.misses in
  ( rendered,
    {
      concurrency;
      phase;
      requests;
      wall_s;
      req_per_s = (if wall_s > 0.0 then float_of_int requests /. wall_s else 0.0);
      latency_ms =
        (if requests > 0 then wall_s *. 1000.0 /. float_of_int requests else 0.0);
      hits;
      misses;
      hit_rate = Harness.hit_rate ~hits ~misses;
      plans_computed = s1.Api.plans_computed - s0.Api.plans_computed;
      compiles_computed = s1.Api.compiles_computed - s0.Api.compiles_computed;
    } )

let section () =
  Harness.heading
    "zapd throughput: suite replay through the service engine, cold vs \
     warm plan cache, concurrency 1/8/64";
  let reqs = workload () in
  let results =
    List.map
      (fun concurrency ->
        let engine = Service.Engine.create ~jobs:concurrency () in
        let cold_out, cold = run_pass engine ~concurrency ~phase:"cold" reqs in
        let warm_out, warm = run_pass engine ~concurrency ~phase:"warm" reqs in
        (cold_out, warm_out, cold, warm))
      concurrencies
  in
  let passes =
    List.concat_map (fun (_, _, cold, warm) -> [ cold; warm ]) results
  in
  Harness.emit "zapd" pass_json passes;
  Harness.write_baseline ~file:"BENCH_zapd_throughput.json"
    ~schema:"fuzion/bench-zapd-throughput/1"
    ~meta:
      [
        ( "note",
          Obs.Json.String
            "wall-clock measurement: wall_s/req_per_s/latency_ms vary by \
             machine; counters and hit rates are deterministic" );
      ]
    pass_json passes;
  Harness.table columns passes;
  let per_level (cold_out, warm_out, _, warm) =
    let c = warm.concurrency in
    Harness.check (cold_out = warm_out)
      "concurrency %d: warm responses differ from cold" c
    @ Harness.check (warm.hit_rate >= 0.9)
        "concurrency %d: warm hit rate %.2f < 0.90" c warm.hit_rate
    @ Harness.check (warm.plans_computed = 0)
        "concurrency %d: warm pass re-planned %d times" c warm.plans_computed
  in
  (* responses must also agree across concurrency levels *)
  let across =
    match results with
    | (out0, _, cold0, _) :: rest ->
        List.concat_map
          (fun (out, _, cold, _) ->
            Harness.check (out = out0)
              "responses at concurrency %d differ from concurrency %d"
              cold.concurrency cold0.concurrency)
          rest
    | [] -> []
  in
  Harness.gate
    (List.map
       (( ^ ) "zapd bench FAILED: ")
       (List.concat_map per_level results @ across))
