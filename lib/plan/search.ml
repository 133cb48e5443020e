type cfg = {
  max_states : int;
  beam_width : int;
  eps : float;
  jobs : int;
}

let default = { max_states = 4000; beam_width = 4; eps = 1e-6; jobs = 1 }

type stats = {
  expanded : int;
  generated : int;
  pruned : int;
  deduped : int;
  beam_rounds : int;
  greedy_ns : float;
  best_ns : float;
  improved : bool;
}

(* A generated state keeps only its canonical key and prices: the
   partition (with its membership tables) is rebuilt from the key when
   the state is expanded, which few states ever are. *)
type state = {
  key : string;
  cost : Cost.breakdown;
  bound : float;
}

(* Canonical state identity: the cluster-representative vector.  Two
   partitions with the same vector are the same partition, so this
   both memoizes and makes every tie-break deterministic. *)
let key_of n cluster_of =
  let b = Buffer.create (4 * n) in
  for i = 0 to n - 1 do
    if i > 0 then Buffer.add_char b '.';
    Buffer.add_string b (string_of_int (cluster_of i))
  done;
  Buffer.contents b

let partition_of_key g key =
  Core.Partition.of_reps g
    (if Core.Asdg.n g = 0 then [||]
     else
       Array.of_list (List.map int_of_string (String.split_on_char '.' key)))

(* Per-array facts the bound reads, fixed for the whole block search. *)
type bound_facts = {
  var_refs : int list array;  (** var -> referencing statements *)
  var_lines : int array;  (** var -> lines of one sweep *)
  var_index : (string, int) Hashtbl.t;
  cands : (int * float) list;
      (** eligible candidates (first reference is a write, a property
          of the block rather than of the partition) in candidate
          order: var index and reference weight × L1 hit ns *)
}

let bound_facts cost_t ~block ~candidates g =
  let m = (Cost.cfg cost_t).Cost.machine in
  let vars = Array.of_list (Core.Asdg.vars g) in
  let var_index = Hashtbl.create (Array.length vars) in
  Array.iteri (fun k x -> Hashtbl.replace var_index x k) vars;
  let t0 = Core.Partition.trivial g in
  {
    var_refs = Array.map (Core.Asdg.stmts_referencing g) vars;
    var_lines = Array.map (Cost.sweep_lines cost_t ~block) vars;
    var_index;
    cands =
      List.filter_map
        (fun x ->
          match Hashtbl.find_opt var_index x with
          | Some k when Core.Partition.first_ref_is_write t0 x ->
              Some
                ( k,
                  float_of_int (Cost.block_weight cost_t ~block x)
                  *. m.Machine.l1_hit_ns )
          | _ -> None)
        candidates;
  }

(* Number of distinct clusters among the statements. *)
let clusters_among p stmts =
  List.length
    (List.sort_uniq Int.compare (List.map (Core.Partition.cluster_of p) stmts))

(* Admissible optimism: from state [p] a descendant can at best
   (a) contract every remaining first-ref-is-write candidate — saving
   its reference weight in L1 hits plus every sweep it still causes;
   (b) fuse all clusters referencing an array down to one sweep; and
   (c) lose the entire communication bill.  Overestimating the
   achievable savings only weakens pruning, never correctness. *)
let bound_of cost_t ~block facts p ~contracted (cost : Cost.breakdown) =
  let m = (Cost.cfg cost_t).Cost.machine in
  let mult = float_of_int (Cost.block_mult cost_t ~block) in
  let miss_ub = m.Machine.l1_miss_ns +. m.Machine.l2_miss_ns in
  let is_contracted = Array.make (Array.length facts.var_refs) false in
  List.iter
    (fun x ->
      match Hashtbl.find_opt facts.var_index x with
      | Some k -> is_contracted.(k) <- true
      | None -> ())
    contracted;
  let k = Array.map (clusters_among p) facts.var_refs in
  let h_contract =
    List.fold_left
      (fun acc (v, hit_ns) ->
        if is_contracted.(v) then acc
        else
          acc +. hit_ns
          +. (float_of_int (k.(v) * facts.var_lines.(v)) *. miss_ub))
      0.0 facts.cands
  in
  let h_locality = ref 0.0 in
  Array.iteri
    (fun v kv ->
      if (not is_contracted.(v)) && kv > 1 then
        h_locality :=
          !h_locality +. (float_of_int ((kv - 1) * facts.var_lines.(v)) *. miss_ub))
    k;
  cost.Cost.total_ns
  -. ((mult *. (h_contract +. !h_locality)) +. cost.Cost.comm_ns)

(* All legal merge moves from [p]: the Figure-3 array moves plus
   pairwise cluster merges, each closed under GROW (so acyclicity is
   preserved by construction) and vetted by check_merge. *)
let moves g p =
  let grow = Core.Partition.grow p in
  let closure c =
    let c = List.sort_uniq compare c in
    List.sort_uniq compare (c @ grow c)
  in
  let array_moves =
    List.filter_map
      (fun x ->
        let refs = Core.Asdg.stmts_referencing g x in
        match
          List.sort_uniq compare (List.map (Core.Partition.cluster_of p) refs)
        with
        | [] | [ _ ] -> None
        | c -> Some (closure c))
      (Core.Asdg.vars g)
  in
  let reps = List.map List.hd (Core.Partition.clusters p) in
  let pair_moves =
    List.concat_map
      (fun r1 ->
        List.filter_map
          (fun r2 -> if r2 <= r1 then None else Some (closure [ r1; r2 ]))
          reps)
      reps
  in
  List.sort_uniq compare (array_moves @ pair_moves)
  |> List.filter (fun c ->
         List.length c > 1 && Core.Partition.check_merge p c = Ok ())

module Frontier = Map.Make (struct
  type t = float * int

  let compare = compare
end)

let block ?probe cfg cost_t ~block ~candidates g =
  Obs.span "plan-search" @@ fun () ->
  let n = Core.Asdg.n g in
  let facts = bound_facts cost_t ~block ~candidates g in
  (* Phase clocks are read only under a recorder.  Workers return their
     share with each state and the calling domain adds it in task
     order, so the totals are emitted (with the same keys) at any
     [cfg.jobs]. *)
  let obs = Obs.enabled () in
  let clock () = if obs then Obs.now_ns () else 0.0 in
  let decide_ns = ref 0.0
  and cost_ns = ref 0.0
  and bound_ns = ref 0.0
  and moves_ns = ref 0.0 in
  let untimed = (0.0, 0.0, 0.0, 0.0) in
  (* pure: safe to evaluate from any pool worker (Cost.t serializes its
     memo internally; everything else it touches is read-only).  The
     contraction decision is silent: only the compiled plan's decision
     reaches the contraction counters.  Building the partition counts
     as move generation. *)
  let mk (build, key) =
    let tb = clock () in
    let p = build () in
    let t0 = clock () in
    let contracted = Core.Contraction.decide ~observe:false p ~candidates in
    let t1 = clock () in
    let bp =
      {
        Sir.Scalarize.partition = p;
        contracted = List.map (fun x -> (x, Core.Contraction.Scalar)) contracted;
        absorbed = [];
      }
    in
    let cost = Cost.block_cost cost_t ~block bp in
    let t2 = clock () in
    let bound = bound_of cost_t ~block facts p ~contracted cost in
    let spent =
      if obs then (t0 -. tb, t1 -. t0, t2 -. t1, clock () -. t2) else untimed
    in
    ({ key; cost; bound }, spent)
  in
  let priced (st, (m, d, c, b)) =
    if obs then begin
      moves_ns := !moves_ns +. m;
      decide_ns := !decide_ns +. d;
      cost_ns := !cost_ns +. c;
      bound_ns := !bound_ns +. b
    end;
    st
  in
  let expanded = ref 0
  and generated = ref 0
  and pruned = ref 0
  and deduped = ref 0
  and beam_rounds = ref 0 in
  (* a child partition is built for [probe] only when one is given *)
  let probe_with build = Option.iter (fun f -> f (build ())) probe in
  let cost_state p =
    probe_with (fun () -> p);
    incr generated;
    priced (mk ((fun () -> p), key_of n (Core.Partition.cluster_of p)))
  in
  (* seeds: the trivial partition (search root) and the paper's greedy
     c2+f3 result, which becomes the incumbent floor *)
  let trivial = cost_state (Core.Partition.trivial g) in
  let greedy_p =
    Core.Fusion.for_locality (Core.Fusion.for_contraction ~candidates g)
  in
  let greedy =
    if key_of n (Core.Partition.cluster_of greedy_p) = trivial.key then trivial
    else cost_state greedy_p
  in
  let incumbent =
    ref
      (if trivial.cost.Cost.total_ns < greedy.cost.Cost.total_ns -. cfg.eps
       then trivial
       else greedy)
  in
  let visited = Hashtbl.create 256 in
  Hashtbl.replace visited trivial.key ();
  Hashtbl.replace visited greedy.key ();
  let tick = ref 0 in
  let frontier = ref Frontier.empty in
  let push st =
    incr tick;
    frontier := Frontier.add (st.bound, !tick) st !frontier
  in
  push trivial;
  if greedy.key <> trivial.key then push greedy;
  (* Children of a state, deduplicated against everything seen.  The
     sequential prefix (move enumeration, keying, visited bookkeeping,
     probe, stat counters) fixes exactly which states get costed and in
     what order; only the pure costing fans out over the pool, and
     Pool.map returns in task order — so stats and tie-breaks are
     independent of [cfg.jobs].  A child is keyed without building it;
     each worker builds the partitions it prices, so a large sibling
     batch never holds all of them at once. *)
  let children st =
    let t0 = clock () in
    let p = partition_of_key g st.key in
    let fresh =
      List.filter_map
        (fun c ->
          let rep = Core.Partition.merged_rep p c in
          let key = key_of n (fun i -> rep (Core.Partition.cluster_of p i)) in
          if Hashtbl.mem visited key then begin
            incr deduped;
            None
          end
          else begin
            Hashtbl.replace visited key ();
            probe_with (fun () -> Core.Partition.merge p c);
            incr generated;
            Some ((fun () -> Core.Partition.merge p c), key)
          end)
        (moves g p)
    in
    if obs then moves_ns := !moves_ns +. (clock () -. t0);
    List.map priced (Support.Pool.map ~domains:cfg.jobs mk fresh)
  in
  (* ---- branch and bound ------------------------------------------ *)
  let budget_left () = !generated < cfg.max_states in
  let exhausted = ref false in
  while (not !exhausted) && (not (Frontier.is_empty !frontier)) && budget_left ()
  do
    let k, st = Frontier.min_binding !frontier in
    frontier := Frontier.remove k !frontier;
    if st.bound >= !incumbent.cost.Cost.total_ns -. cfg.eps then begin
      (* best-first: every remaining bound is at least this one *)
      pruned := !pruned + 1 + Frontier.cardinal !frontier;
      frontier := Frontier.empty;
      exhausted := true
    end
    else begin
      incr expanded;
      List.iter
        (fun st' ->
          if st'.cost.Cost.total_ns < !incumbent.cost.Cost.total_ns -. cfg.eps
          then incumbent := st';
          if st'.bound < !incumbent.cost.Cost.total_ns -. cfg.eps then push st'
          else incr pruned)
        (children st)
    end
  done;
  (* ---- beam fallback --------------------------------------------- *)
  if not (Frontier.is_empty !frontier) then begin
    Obs.count "plan.beam-cutoffs" 1;
    (* eps-canonical order: costs are compared at [cfg.eps] granularity
       so that states the search already treats as equal-cost are
       ranked by their canonical cluster-rep key, not by sub-eps float
       noise — which states survive [take beam_width] must not depend
       on how the costs were accumulated.  Quantizing keeps the
       comparison a total order (lexicographic on a pure function of
       the state), unlike an eps-tolerant float comparison, which is
       not transitive. *)
    let quantize ns = if cfg.eps > 0.0 then Float.round (ns /. cfg.eps) else ns in
    let by_cost a b =
      compare
        (quantize a.cost.Cost.total_ns, a.key)
        (quantize b.cost.Cost.total_ns, b.key)
    in
    let rec take k = function
      | [] -> []
      | _ when k = 0 -> []
      | x :: tl -> x :: take (k - 1) tl
    in
    let seeds =
      Frontier.fold (fun _ st acc -> st :: acc) !frontier []
      |> List.cons !incumbent |> List.sort by_cost
      |> take cfg.beam_width
    in
    frontier := Frontier.empty;
    let beam = ref seeds in
    let continue = ref true in
    (* a block of n statements admits at most n-1 merges from any
       state, so n rounds always reach a fixpoint *)
    while !continue && !beam_rounds < n && !generated < 4 * cfg.max_states do
      incr beam_rounds;
      let kids = List.concat_map children !beam in
      List.iter
        (fun st ->
          if st.cost.Cost.total_ns < !incumbent.cost.Cost.total_ns -. cfg.eps
          then incumbent := st)
        kids;
      match List.sort by_cost kids with
      | [] -> continue := false
      | sorted -> beam := take cfg.beam_width sorted
    done
  end;
  if obs then begin
    Obs.total "plan.decide_ns" !decide_ns;
    Obs.total "plan.cost_ns" !cost_ns;
    Obs.total "plan.bound_ns" !bound_ns;
    Obs.total "plan.moves_ns" !moves_ns;
    Obs.count "plan.nodes-expanded" !expanded;
    Obs.count "plan.states-generated" !generated;
    Obs.count "plan.nodes-pruned" !pruned;
    Obs.count "plan.states-deduped" !deduped;
    Obs.count "plan.beam-rounds" !beam_rounds
  end;
  let best = !incumbent in
  ( partition_of_key g best.key,
    {
      expanded = !expanded;
      generated = !generated;
      pruned = !pruned;
      deduped = !deduped;
      beam_rounds = !beam_rounds;
      greedy_ns = greedy.cost.Cost.total_ns;
      best_ns = best.cost.Cost.total_ns;
      improved = best.cost.Cost.total_ns < greedy.cost.Cost.total_ns -. cfg.eps;
    } )
