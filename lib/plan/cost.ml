open Ir

type cfg = {
  machine : Machine.t;
  procs : int;
  opts : Comm.Model.opts;
}

type breakdown = {
  flop_ns : float;
  ref_ns : float;
  miss_ns : float;
  comm_ns : float;
  total_ns : float;
  contracted_elems : int;
}

let zero =
  {
    flop_ns = 0.0;
    ref_ns = 0.0;
    miss_ns = 0.0;
    comm_ns = 0.0;
    total_ns = 0.0;
    contracted_elems = 0;
  }

let add a b =
  {
    flop_ns = a.flop_ns +. b.flop_ns;
    ref_ns = a.ref_ns +. b.ref_ns;
    miss_ns = a.miss_ns +. b.miss_ns;
    comm_ns = a.comm_ns +. b.comm_ns;
    total_ns = a.total_ns +. b.total_ns;
    contracted_elems = a.contracted_elems + b.contracted_elems;
  }

type block_info = {
  stmts : Nstmt.t list;
  mult : int;
  base_refs : int;  (** element references per execution, before contraction *)
  flops : int;  (** floating-point operations per execution *)
  weight : (string, int) Hashtbl.t;  (** array -> reference weight *)
  lines : (string, int) Hashtbl.t;
      (** array -> lines one sweep of its first referencing statement's
          region touches *)
  stream : (int * int * bool) array array;
      (** statement -> its references in probe order (lhs, then rhs
          left to right) as (array id, simulated base address, write) *)
  stmt_lines : int array;  (** statement -> lines one sweep of its region touches *)
}

(* Probe memo key: [| block; members...; -1; ids of the contracted
   arrays the members reference, ascending |]. *)
module Key = Hashtbl.Make (struct
  type t = int array

  let equal (a : t) b = a = b
  let hash a = Array.fold_left (fun h x -> (h * 31) + x) 17 a land max_int
end)

type t = {
  cfg : cfg;
  blocks : block_info array;
  red_execs : int;
  ids : (string, int) Hashtbl.t;  (** array -> dense id *)
  memo : (float * float) Key.t;
      (** cluster probe signature -> (L1, L2) misses per execution *)
  memo_lock : Mutex.t;
      (** [memo] is the only mutable field touched after [create];
          parallel plan search costs sibling states from several
          domains against one [t] *)
}

(* Probing a sweep at more lines than this buys no new information:
   interleaved unit-stride streams behave periodically once every set
   of the cache has been visited, so measured miss rates are scaled
   linearly up to the real line count. *)
let probe_cap = 512

let rec expr_flops (e : Expr.t) =
  match e with
  | Expr.Const _ | Expr.Svar _ | Expr.Ref _ | Expr.Idx _ -> 0
  | Expr.Unop (_, a) -> 1 + expr_flops a
  | Expr.Binop (_, a, b) -> 1 + expr_flops a + expr_flops b
  | Expr.Select (c, a, b) -> 1 + expr_flops c + expr_flops a + expr_flops b

let lines_of_machine (m : Machine.t) vol =
  let line = m.Machine.l1.Cachesim.Cache.line_bytes in
  max 1 (((8 * vol) + line - 1) / line)

(* A statement's references in probe order, with write flags. *)
let stmt_refs (s : Nstmt.t) =
  (s.lhs, true) :: List.map (fun (x, _) -> (x, false)) (Expr.refs s.rhs)

let create cfg prog =
  let blocks = Prog.blocks prog in
  let mults, red_execs = Comm.Model.block_multipliers prog in
  (* Deterministic simulated layout: arrays in declaration order, each
     base aligned well past both line sizes, with a guard line between
     allocations so distinct arrays never share a cache line.  Arrays
     are interned in the same order; an undeclared array gets the next
     id and base address 0. *)
  let ids = Hashtbl.create 16 in
  let base = Hashtbl.create 16 in
  let intern x =
    match Hashtbl.find_opt ids x with
    | Some k -> k
    | None ->
        let k = Hashtbl.length ids in
        Hashtbl.add ids x k;
        k
  in
  let align = 256 in
  let next = ref 0 in
  List.iter
    (fun (a : Prog.array_info) ->
      ignore (intern a.Prog.name);
      Hashtbl.replace base a.Prog.name !next;
      let bytes = (8 * Region.volume a.Prog.bounds) + align in
      next := (!next + bytes + align - 1) / align * align)
    prog.Prog.arrays;
  let base_of x = Option.value ~default:0 (Hashtbl.find_opt base x) in
  let info =
    List.mapi
      (fun bi stmts ->
        let stmts_a = Array.of_list stmts in
        let vols = Array.map (fun (s : Nstmt.t) -> Region.volume s.region) stmts_a in
        let stmt_lines = Array.map (lines_of_machine cfg.machine) vols in
        let refs = Array.map stmt_refs stmts_a in
        let weight = Hashtbl.create 16 and lines = Hashtbl.create 16 in
        Array.iteri
          (fun i refs ->
            List.iter
              (fun (x, _) ->
                let w = Option.value ~default:0 (Hashtbl.find_opt weight x) in
                Hashtbl.replace weight x (w + vols.(i));
                if not (Hashtbl.mem lines x) then Hashtbl.add lines x stmt_lines.(i))
              refs)
          refs;
        let sum f = Array.fold_left ( + ) 0 (Array.mapi f stmts_a) in
        {
          stmts;
          mult = mults.(bi);
          base_refs = sum (fun i _ -> List.length refs.(i) * vols.(i));
          flops = sum (fun i (s : Nstmt.t) -> expr_flops s.rhs * vols.(i));
          weight;
          lines;
          stream =
            Array.map
              (fun refs ->
                Array.of_list
                  (List.map (fun (x, write) -> (intern x, base_of x, write)) refs))
              refs;
          stmt_lines;
        })
      blocks
  in
  {
    cfg;
    blocks = Array.of_list info;
    red_execs;
    ids;
    memo = Key.create 256;
    memo_lock = Mutex.create ();
  }

let cfg t = t.cfg
let block_mult t ~block = t.blocks.(block).mult

let block_weight t ~block x =
  Option.value ~default:0 (Hashtbl.find_opt t.blocks.(block).weight x)

let sweep_lines t ~block x =
  match Hashtbl.find_opt t.blocks.(block).lines x with
  | Some l -> l
  | None -> lines_of_machine t.cfg.machine 0

let scalar_contracted (bp : Sir.Scalarize.block_plan) =
  List.filter_map
    (function
      | x, Core.Contraction.Scalar -> Some x
      | _, Core.Contraction.Keep_dims _ -> None)
    bp.Sir.Scalarize.contracted

(* One fused cluster = one loop nest sweeping the cluster's region:
   feed an interleaved line-granular stream (one stream per reference,
   contracted arrays excluded) through the machine's cache hierarchy
   and scale the measured misses to the sweep's real line count. *)
let cluster_misses t ~block members ~contracted =
  let info = t.blocks.(block) in
  let is_contracted = Array.make (Hashtbl.length t.ids) false in
  List.iter
    (fun x ->
      Option.iter (fun k -> is_contracted.(k) <- true) (Hashtbl.find_opt t.ids x))
    contracted;
  (* the sweep's streams, and the contracted arrays it leaves out *)
  let refs = ref [] and skipped = ref [] in
  List.iter
    (fun i ->
      Array.iter
        (fun (k, b, write) ->
          if is_contracted.(k) then skipped := k :: !skipped
          else refs := (b, write) :: !refs)
        info.stream.(i))
    members;
  match (List.rev !refs, members) with
  | [], _ | _, [] -> (0.0, 0.0)
  | refs, s0 :: _ ->
      let m = t.cfg.machine in
      let line = m.Machine.l1.Cachesim.Cache.line_bytes in
      let lines = info.stmt_lines.(s0) in
      let key =
        Array.of_list
          ((block :: members) @ (-1 :: List.sort_uniq Int.compare !skipped))
      in
      (* the lock covers only the table; a missed lookup is recomputed
         outside it — two domains may race the same probe, but the
         result is deterministic, so the duplicate work is benign *)
      (match Mutex.protect t.memo_lock (fun () -> Key.find_opt t.memo key) with
      | Some r -> r
      | None ->
          let probe = min lines probe_cap in
          let hier =
            Cachesim.Cache.Hierarchy.create ~l1:m.Machine.l1 ?l2:m.Machine.l2 ()
          in
          for i = 0 to probe - 1 do
            List.iter
              (fun (b, write) ->
                Cachesim.Cache.Hierarchy.access hier
                  ~addr:(b + (i * line))
                  ~write)
              refs
          done;
          let scale = float_of_int lines /. float_of_int probe in
          let l1 =
            float_of_int
              (Cachesim.Cache.Hierarchy.l1_stats hier).Cachesim.Cache.misses
            *. scale
          in
          let l2 =
            match Cachesim.Cache.Hierarchy.l2_stats hier with
            | Some s -> float_of_int s.Cachesim.Cache.misses *. scale
            | None -> 0.0
          in
          Mutex.protect t.memo_lock (fun () ->
              Key.replace t.memo key (l1, l2));
          (l1, l2))

let block_cost t ~block (bp : Sir.Scalarize.block_plan) =
  let info = t.blocks.(block) in
  let m = t.cfg.machine in
  let p = bp.Sir.Scalarize.partition in
  let contracted = scalar_contracted bp in
  let saved =
    List.fold_left (fun acc x -> acc + block_weight t ~block x) 0 contracted
  in
  let refs = info.base_refs - saved in
  let l1m, l2m =
    List.fold_left
      (fun (a1, a2) cluster ->
        let s1, s2 = cluster_misses t ~block cluster ~contracted in
        (a1 +. s1, a2 +. s2))
      (0.0, 0.0) (Core.Partition.clusters p)
  in
  let comm =
    Comm.Model.block_comm ~machine:m ~procs:t.cfg.procs ~opts:t.cfg.opts
      info.stmts bp
  in
  let fmult = float_of_int info.mult in
  let flop_ns = fmult *. float_of_int info.flops *. m.Machine.flop_ns in
  let ref_ns = fmult *. float_of_int refs *. m.Machine.l1_hit_ns in
  let miss_ns =
    fmult
    *. ((l1m *. m.Machine.l1_miss_ns) +. (l2m *. m.Machine.l2_miss_ns))
  in
  let comm_ns = fmult *. comm.Comm.Model.effective_ns in
  {
    flop_ns;
    ref_ns;
    miss_ns;
    comm_ns;
    total_ns = flop_ns +. ref_ns +. miss_ns +. comm_ns;
    contracted_elems = saved;
  }

let plan_cost t plan =
  let sum =
    List.fold_left add zero
      (List.mapi (fun bi bp -> block_cost t ~block:bi bp) plan)
  in
  (* reduction combining trees, exactly as Comm.Model.analyze charges
     them; plan-invariant, kept so totals line up with the model *)
  let m = t.cfg.machine in
  let stages = Comm.Model.reduction_stages t.cfg.procs in
  let red =
    float_of_int (t.red_execs * stages)
    *. (m.Machine.msg_latency_ns +. (8.0 *. m.Machine.byte_ns))
  in
  { sum with comm_ns = sum.comm_ns +. red; total_ns = sum.total_ns +. red }

let compiled_cost t (c : Compilers.Driver.compiled) =
  plan_cost t c.Compilers.Driver.plan
