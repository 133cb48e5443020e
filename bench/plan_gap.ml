(* Planner gap: the search-based planner and the ILP partitioner
   (lib/plan) against the paper's greedy c2+f3 ladder, priced by the
   same unified cost model, over the whole suite and every machine.

   For each (benchmark, machine, procs) configuration the chain
   ilp <= search <= greedy must hold under the model — search is
   seeded with the greedy partition and the ILP solve is seeded with
   the searched partitions, so any inversion is a planner bug and
   fails the bench — and every planner's interpreter checksum must
   equal the greedy program's (plans may differ; results may not).

   When the ILP's column enumeration completed on every block the row
   also carries the certified lower bound, and cert_gap_pct says how
   far the chosen plan sits above it (0 on proved-optimal cells).

   The baseline is BENCH_plan_gap.json: greedy vs searched vs ILP cost
   per configuration, deterministic, so a re-run diffs clean when
   nothing changed. *)

let machines = [ Machine.t3e; Machine.sp2; Machine.paragon ]

let procs_list = [ 1; 16 ]

type rowr = {
  bench : string;
  machine : string;
  procs : int;
  greedy_ns : float;
  search_ns : float;
  ilp_ns : float;
  chosen : string;
  gap_pct : float;  (* 100 × (greedy − search) / greedy *)
  ilp_gap_pct : float;  (* 100 × (greedy − ilp) / greedy *)
  cert_gap_pct : float option;
      (* 100 × (chosen − certified lb) / chosen, when certified *)
  improved : bool;
  fallback : bool;
  proved : bool;  (* every block closed with an exact optimality proof *)
  certified_lb_ns : float option;
  states : int;  (* search cost evaluations across all blocks *)
  beam_rounds : int;
  ilp_columns : int;  (* enumerated valid clusters across all blocks *)
  ilp_nodes : int;  (* branch-and-cut nodes across all blocks *)
  checksum : string;
  ok : bool;  (* ilp ≤ search ≤ greedy AND checksums agree *)
}

let row_json r =
  let opt_float = function
    | Some f -> Obs.Json.Float f
    | None -> Obs.Json.Null
  in
  Obs.Json.Obj
    [
      ("bench", Obs.Json.String r.bench);
      ("machine", Obs.Json.String r.machine);
      ("procs", Obs.Json.Int r.procs);
      ("greedy_ns", Obs.Json.Float r.greedy_ns);
      ("search_ns", Obs.Json.Float r.search_ns);
      ("ilp_ns", Obs.Json.Float r.ilp_ns);
      ("chosen", Obs.Json.String r.chosen);
      ("gap_pct", Obs.Json.Float r.gap_pct);
      ("ilp_gap_pct", Obs.Json.Float r.ilp_gap_pct);
      ("cert_gap_pct", opt_float r.cert_gap_pct);
      ("improved", Obs.Json.Bool r.improved);
      ("fallback", Obs.Json.Bool r.fallback);
      ("proved_optimal", Obs.Json.Bool r.proved);
      ("certified_lb_ns", opt_float r.certified_lb_ns);
      ("states", Obs.Json.Int r.states);
      ("beam_rounds", Obs.Json.Int r.beam_rounds);
      ("ilp_columns", Obs.Json.Int r.ilp_columns);
      ("ilp_nodes", Obs.Json.Int r.ilp_nodes);
      ("checksum", Obs.Json.String r.checksum);
      ("ok", Obs.Json.Bool r.ok);
    ]

let columns : rowr Harness.column list =
  let ns f r = Printf.sprintf "%.0f" (f r) in
  [
    ("bench", -8, fun r -> r.bench);
    ("machine", -12, fun r -> r.machine);
    ("procs", 5, fun r -> string_of_int r.procs);
    ("greedy ns", 14, ns (fun r -> r.greedy_ns));
    ("search ns", 14, ns (fun r -> r.search_ns));
    ("ilp ns", 14, ns (fun r -> r.ilp_ns));
    ("gap%", 7, fun r -> Printf.sprintf "%6.2f%%" r.ilp_gap_pct);
    ("cols", 7, fun r -> string_of_int r.ilp_columns);
    ("chosen", 7, fun r -> r.chosen);
    ("proved", 6, fun r -> if r.proved then "yes" else "no");
    ("ok", 0, fun r -> if r.ok then "ok" else "WORSE");
  ]

(* checksums only depend on the generated code, not the machine the
   plan was priced for — cache them across the machine × procs sweep.
   Cells run on a pool, so the table is behind a lock; a racing miss
   recomputes the (deterministic) checksum, which is benign. *)
let checksum_cache : (string, string) Hashtbl.t = Hashtbl.create 64
let checksum_lock = Mutex.create ()

let checksum_of ~key code =
  match
    Mutex.protect checksum_lock (fun () -> Hashtbl.find_opt checksum_cache key)
  with
  | Some s -> s
  | None ->
      let s = Exec.Interp.checksum (Exec.Interp.run code) in
      Mutex.protect checksum_lock (fun () ->
          Hashtbl.replace checksum_cache key s);
      s

let plan_signature (c : Compilers.Driver.compiled) =
  String.concat ";"
    (List.map
       (fun (bp : Sir.Scalarize.block_plan) ->
         String.concat "|"
           (List.map
              (fun cl -> String.concat "," (List.map string_of_int cl))
              (Core.Partition.clusters bp.Sir.Scalarize.partition))
         ^ "/"
         ^ String.concat "," (List.map fst bp.Sir.Scalarize.contracted))
       c.Compilers.Driver.plan)

let measure (b : Suite.bench) (machine : Machine.t) procs =
  let prog = Suite.program ?tile:(Harness.tile_of b) b in
  let greedy = Harness.compile ~level:Compilers.Driver.C2F3 prog in
  let cost =
    Plan.Cost.create { Plan.Cost.machine; procs; opts = Comm.Model.all_on } prog
  in
  let chosen, prov =
    Harness.ok_or_die
      (Plan.Driver.compile_ilp ~search:(Harness.search_cfg ())
         ~ilp:(Harness.ilp_cfg ()) ~cost prog)
  in
  let greedy_sum =
    checksum_of ~key:(b.name ^ "!greedy") greedy.Compilers.Driver.code
  in
  let chosen_sum =
    checksum_of
      ~key:(b.name ^ "!" ^ plan_signature chosen)
      chosen.Compilers.Driver.code
  in
  let g = prov.Plan.Driver.greedy_total_ns
  and s = prov.Plan.Driver.search_total_ns in
  let i = Option.value prov.Plan.Driver.ilp_total_ns ~default:s in
  let proved = Option.value prov.Plan.Driver.proved_optimal ~default:false in
  let lb = prov.Plan.Driver.certified_lb_ns in
  let chosen_ns = prov.Plan.Driver.chosen_total_ns in
  (* the never-worse chain: search is seeded with greedy, the ILP with
     the searched partitions, so an inversion anywhere is a planner
     bug *)
  let eps = 1e-6 in
  let chain_ok = i <= s +. eps && s <= g +. eps && chosen_ns <= g +. eps in
  {
    bench = b.name;
    machine = machine.Machine.name;
    procs;
    greedy_ns = g;
    search_ns = s;
    ilp_ns = i;
    chosen = prov.Plan.Driver.strategy;
    gap_pct = (if g > 0.0 then 100.0 *. (g -. s) /. g else 0.0);
    ilp_gap_pct = (if g > 0.0 then 100.0 *. (g -. i) /. g else 0.0);
    cert_gap_pct =
      Option.map
        (fun l ->
          if chosen_ns > 0.0 then
            Float.max 0.0 (100.0 *. (chosen_ns -. l) /. chosen_ns)
          else 0.0)
        lb;
    improved = i < g -. eps;
    fallback = prov.Plan.Driver.fallback;
    proved;
    certified_lb_ns = lb;
    states =
      List.fold_left
        (fun acc (r : Plan.Driver.block_report) ->
          acc + r.Plan.Driver.stats.Plan.Search.generated)
        0 prov.Plan.Driver.blocks;
    beam_rounds =
      List.fold_left
        (fun acc (r : Plan.Driver.block_report) ->
          acc + r.Plan.Driver.stats.Plan.Search.beam_rounds)
        0 prov.Plan.Driver.blocks;
    ilp_columns =
      List.fold_left
        (fun acc (r : Plan.Driver.ilp_report) ->
          acc + r.Plan.Driver.istats.Plan.Ilp.clusters)
        0 prov.Plan.Driver.ilp_blocks;
    ilp_nodes =
      List.fold_left
        (fun acc (r : Plan.Driver.ilp_report) ->
          acc + r.Plan.Driver.istats.Plan.Ilp.nodes)
        0 prov.Plan.Driver.ilp_blocks;
    checksum = chosen_sum;
    ok = chain_ok && String.equal greedy_sum chosen_sum;
  }

let section () =
  Harness.heading
    "Planner gap: branch-and-cut ILP and beam search vs greedy c2+f3 under \
     the unified cost model";
  let machines = if !Harness.tiny_mode then [ Machine.t3e ] else machines in
  let procs_list = if !Harness.tiny_mode then [ 16 ] else procs_list in
  (* one task per (benchmark, machine, procs) cell, fanned out over
     --jobs domains; the per-cell solvers stay sequential (jobs=1 in
     their cfgs) so the pool is never oversubscribed.  Pool.map keeps
     cell order — the committed baseline is independent of --jobs. *)
  let cells =
    List.concat_map
      (fun b ->
        List.concat_map
          (fun m -> List.map (fun procs -> (b, m, procs)) procs_list)
          machines)
      Suite.all
  in
  let rows =
    Support.Pool.map ~domains:!Harness.jobs
      (fun (b, m, procs) -> measure b m procs)
      cells
  in
  Harness.emit "plan" row_json rows;
  Harness.write_baseline ~file:"BENCH_plan_gap.json"
    ~schema:"fuzion/bench-plan-gap/2" row_json rows;
  Harness.table columns rows;
  Harness.gate
    (List.concat_map
       (fun r ->
         Harness.check r.ok
           "plan regression: %s on %s x%d (greedy %.0f ns, search %.0f ns, \
            ilp %.0f ns, chosen %s)"
           r.bench r.machine r.procs r.greedy_ns r.search_ns r.ilp_ns r.chosen)
       rows)
