(* Runtime-fusion bench: streaming loops through the lazy frontend,
   cold vs warm plan cache.

   Three scenarios, each a loop that records the same trace *shape*
   with iteration-dependent constants and forces it: a 1-D 3-point
   stencil chain (greedy), a map-square + reduction (greedy), and a
   2-D 5-point stencil under the search planner.  Iteration 1 is the
   cold pass (the shape's one compile — and, under search, its one
   plan); iterations 2.. are the warm pass and must be served entirely
   from the engine's fingerprint-keyed cache.

   Three properties are load-bearing and fail the bench:

   - correctness: every forced result is checksum-equal to
     Exec.Refinterp on the trace's direct lowering (the eager twin);
   - warm hit rate ≥ 90%: repeated shapes reuse the cached plan;
   - zero warm re-planning: the engine's compile/plan-computed
     counters do not advance after iteration 1, and the trace-shape
     fingerprint is identical across all iterations.

   The baseline is BENCH_lazy.json — wall_s is wall-clock and varies
   by machine; every other field is deterministic. *)

module T = Lazyarr.Trace
module Api = Service.Api

(* one iteration of each scenario: record the trace with constants
   depending on [t], force it, and return (lazy, reference) checksums *)

let stencil_iter ~n ctx t =
  let ft = float_of_int t in
  let r = Ir.Region.of_bounds [ (0, n - 1) ] in
  let src =
    T.gen ctx r
      Ir.Expr.(Binop (Mul, Const (1.0 +. (0.125 *. ft)), Binop (Add, Idx 1, Const ft)))
  in
  let left = T.shift [| -1 |] src in
  let right = T.shift [| 1 |] src in
  let s = T.zip_with (fun a b -> Ir.Expr.Binop (Ir.Expr.Add, a, b)) left right in
  let sm =
    T.map (fun x -> Ir.Expr.Binop (Ir.Expr.Mul, Ir.Expr.Const (0.25 /. ft), x)) s
  in
  let lazy_sum = T.checksum sm in
  let ref_sum =
    Exec.Refinterp.checksum (Exec.Refinterp.run (T.lower_direct ctx sm))
  in
  (lazy_sum, ref_sum)

let reduction_iter ~n ctx t =
  let ft = float_of_int t in
  let r = Ir.Region.of_bounds [ (0, n - 1) ] in
  let src =
    T.gen ctx r Ir.Expr.(Binop (Add, Binop (Mul, Const (0.001 *. ft), Idx 1), Const ft))
  in
  let sq = T.map (fun x -> Ir.Expr.Binop (Ir.Expr.Mul, x, x)) src in
  let sc = T.reduce Ir.Prog.Rsum sq in
  let lazy_sum = T.scalar_checksum sc in
  let ref_sum =
    Exec.Refinterp.checksum
      (Exec.Refinterp.run (T.lower_direct_scalar ctx sc))
  in
  (lazy_sum, ref_sum)

let stencil2d_iter ~n ctx t =
  let ft = float_of_int t in
  let r = Ir.Region.of_bounds [ (0, n - 1); (0, n - 1) ] in
  let src =
    T.gen ctx r
      Ir.Expr.(Binop (Add, Binop (Mul, Const ft, Idx 1), Binop (Mul, Const 0.5, Idx 2)))
  in
  let north = T.shift [| -1; 0 |] src in
  let south = T.shift [| 1; 0 |] src in
  let west = T.shift [| 0; -1 |] src in
  let east = T.shift [| 0; 1 |] src in
  let add a b = T.zip_with (fun x y -> Ir.Expr.Binop (Ir.Expr.Add, x, y)) a b in
  let s = add (add north south) (add west east) in
  let sm =
    T.map
      (fun x -> Ir.Expr.Binop (Ir.Expr.Mul, Ir.Expr.Const (0.25 +. (0.01 *. ft)), x))
      s
  in
  let lazy_sum = T.checksum sm in
  let ref_sum =
    Exec.Refinterp.checksum (Exec.Refinterp.run (T.lower_direct ctx sm))
  in
  (lazy_sum, ref_sum)

type pass = {
  scenario : string;
  phase : string;  (* "cold" | "warm" *)
  iters : int;
  flushes : int;
  hits : int;  (* engine cache deltas over the pass *)
  misses : int;
  hit_rate : float;
  compiles_computed : int;
  plans_computed : int;
  wall_s : float;
  checksum_ok : bool;
}

let pass_json p =
  Obs.Json.Obj
    [
      ("scenario", Obs.Json.String p.scenario);
      ("phase", Obs.Json.String p.phase);
      ("iters", Obs.Json.Int p.iters);
      ("flushes", Obs.Json.Int p.flushes);
      ("cache_hits", Obs.Json.Int p.hits);
      ("cache_misses", Obs.Json.Int p.misses);
      ("hit_rate", Obs.Json.Float p.hit_rate);
      ("compiles_computed", Obs.Json.Int p.compiles_computed);
      ("plans_computed", Obs.Json.Int p.plans_computed);
      ("wall_s", Obs.Json.Float p.wall_s);
      ("checksum_ok", Obs.Json.Bool p.checksum_ok);
    ]

let columns : pass Harness.column list =
  [
    ("scenario", -18, fun p -> p.scenario);
    ("phase", -5, fun p -> p.phase);
    ("iters", 6, fun p -> string_of_int p.iters);
    ("flushes", 8, fun p -> string_of_int p.flushes);
    ("hits", 6, fun p -> string_of_int p.hits);
    ("miss", 6, fun p -> string_of_int p.misses);
    ("hit-rate", 9, fun p -> Printf.sprintf "%8.1f%%" (100.0 *. p.hit_rate));
    ("compiles", 9, fun p -> string_of_int p.compiles_computed);
    ("plans", 6, fun p -> string_of_int p.plans_computed);
    ("wall s", 8, fun p -> Printf.sprintf "%.3f" p.wall_s);
    ("checksums", 9, fun p -> if p.checksum_ok then "ok" else "MISMATCH");
  ]

let section () =
  Harness.heading
    "lazy runtime fusion: streaming trace shapes through the plan cache, \
     cold vs warm";
  let tiny = !Harness.tiny_mode in
  let n1 = if tiny then 1024 else 65536 in
  let n2 = if tiny then 16 else 96 in
  let iters = if tiny then 4 else 12 in
  let scenarios =
    [
      ("stencil", Api.Greedy, stencil_iter ~n:n1);
      ("reduction", Api.Greedy, reduction_iter ~n:n1);
      ("stencil2d-search", Api.Search, stencil2d_iter ~n:n2);
    ]
  in
  let results =
    List.map
      (fun (name, plan, iter_fn) ->
        let ctx = T.create ~name ~plan () in
        (* one pass and its checksum failures *)
        let run_range phase lo hi =
          let s0 = T.stats ctx in
          let t0 = Unix.gettimeofday () in
          let mismatches =
            List.concat_map
              (fun t ->
                let lazy_sum, ref_sum = iter_fn ctx t in
                Harness.check (lazy_sum = ref_sum)
                  "%s: iteration %d lazy checksum %s <> reference %s" name t
                  lazy_sum ref_sum)
              (List.init (hi - lo + 1) (fun i -> lo + i))
          in
          let wall_s = Unix.gettimeofday () -. t0 in
          let s1 = T.stats ctx in
          let hits = s1.T.cache_hits - s0.T.cache_hits in
          let misses = s1.T.cache_misses - s0.T.cache_misses in
          ( {
              scenario = name;
              phase;
              iters = hi - lo + 1;
              flushes = s1.T.flushes - s0.T.flushes;
              hits;
              misses;
              hit_rate = Harness.hit_rate ~hits ~misses;
              compiles_computed = s1.T.compiles_computed - s0.T.compiles_computed;
              plans_computed = s1.T.plans_computed - s0.T.plans_computed;
              wall_s;
              checksum_ok = mismatches = [];
            },
            mismatches )
        in
        let cold, cold_bad = run_range "cold" 1 1 in
        let fp_cold = (T.stats ctx).T.last_fingerprint in
        let warm, warm_bad = run_range "warm" 2 iters in
        let fp_warm = (T.stats ctx).T.last_fingerprint in
        ( [ cold; warm ],
          cold_bad @ warm_bad
          @ Harness.check (warm.hit_rate >= 0.9) "%s: warm hit rate %.2f < 0.90"
              name warm.hit_rate
          @ Harness.check
              (warm.compiles_computed = 0 && warm.plans_computed = 0)
              "%s: warm pass recompiled (%d compiles, %d plans computed)" name
              warm.compiles_computed warm.plans_computed
          @ Harness.check (fp_cold = fp_warm)
              "%s: trace-shape fingerprint drifted %s -> %s" name
              (Option.value ~default:"-" fp_cold)
              (Option.value ~default:"-" fp_warm) ))
      scenarios
  in
  let passes = List.concat_map fst results in
  Harness.emit "lazy" pass_json passes;
  Harness.write_baseline ~file:"BENCH_lazy.json" ~schema:"fuzion/bench-lazy/1"
    ~meta:
      [
        ( "note",
          Obs.Json.String
            "wall-clock measurement: wall_s varies by machine; checksums, \
             counters and hit rates are deterministic" );
      ]
    pass_json passes;
  Harness.table columns passes;
  Harness.gate
    (List.map (( ^ ) "lazy bench FAILED: ") (List.concat_map snd results))
