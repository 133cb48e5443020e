open Sir

type counters = {
  mutable loads : int;
  mutable stores : int;
  mutable flops : int;
  mutable iters : int;
}

exception Runtime_error of string

type arr = {
  data : float array;
  dims : (int * int) array;
  strides : int array;
  base : int;  (** element base address of this allocation *)
}

type result = {
  arrays : (string, arr) Hashtbl.t;
  scalars : (string, float) Hashtbl.t;
  live_out : string list;
  cnt : counters;
}

let err fmt = Printf.ksprintf (fun s -> raise (Runtime_error s)) fmt

let mk_arr base (a : Code.alloc) =
  let n = Array.length a.dims in
  let strides = Array.make n 1 in
  for d = n - 2 downto 0 do
    let lo, hi = a.dims.(d + 1) in
    strides.(d) <- strides.(d + 1) * max 0 (hi - lo + 1)
  done;
  {
    data = Array.make (max 1 (Code.alloc_volume a)) 0.0;
    dims = a.dims;
    strides;
    base;
  }

let rank_error name got rank =
  err "%s: rank %d subscript on rank %d array" name got rank

let bounds_error name (lo, hi) x d =
  err "%s: subscript %d out of bounds [%d..%d] in dim %d" name x lo hi (d + 1)

let undefined_scalar name = err "undefined scalar %s" name
let undefined_array name = err "undefined (or contracted) array %s" name

let flat_index name arr idx =
  let n = Array.length arr.dims in
  if Array.length idx <> n then rank_error name (Array.length idx) n;
  let flat = ref 0 in
  for d = 0 to n - 1 do
    let lo, hi = arr.dims.(d) in
    let x = idx.(d) in
    if x < lo || x > hi then bounds_error name arr.dims.(d) x d;
    flat := !flat + ((x - lo) * arr.strides.(d))
  done;
  !flat

(* ------------------------------------------------------------------ *)
(* Lowering                                                            *)
(* ------------------------------------------------------------------ *)

(* [run] lowers the program to closures over a [float array] of scalar
   slots, then calls them.  Code has no conditionals and every loop has
   constant bounds, so whether a scalar is defined at a read is known
   statically: walking the body in execution order with one pass over
   each non-empty loop body (its first iteration decides; later ones
   define nothing new) gives the defined set at every point.  A
   reference that would fail (undefined scalar, missing array, rank
   mismatch) is lowered to a closure raising the original error, and
   a zero-trip loop's body is not lowered at all, so an error surfaces
   exactly when, and only if, the reference executes.

   Slot 0 holds 0.0 and serves absolute subscripts, so every subscript
   dimension is [int_of_float slots.(s) + off]. *)

type env = {
  slots : float array;
  slot_of : (string, int) Hashtbl.t;
  defined : bool array;  (** definitely assigned at the current point *)
  allocs : (string, arr) Hashtbl.t;
  cnt : counters;
  trace : (addr:int -> write:bool -> unit) option;
}

let slot_table (p : Code.program) =
  let tbl = Hashtbl.create 16 in
  let add name =
    if not (Hashtbl.mem tbl name) then Hashtbl.add tbl name (Hashtbl.length tbl + 1)
  in
  let rec stmt = function
    | Code.Sassign (x, _) -> add x
    | Code.Store _ -> ()
    | Code.For { var; body; _ } ->
        add var;
        List.iter stmt body
  in
  List.iter (fun (s, _) -> add s) p.scalars;
  List.iter stmt p.body;
  tbl

let defined_slot env name =
  match Hashtbl.find_opt env.slot_of name with
  | Some s when env.defined.(s) -> Some s
  | _ -> None

(* Slot of one subscript's base: slot 0 for an absolute subscript,
   [None] when the base is not defined here. *)
let sub_slot env (s : Code.subscript) =
  if s.base = "" then Some 0 else defined_slot env s.base

(* Element offset of [name[subs]] in [a.data], bounds-checked per
   dimension in order. *)
let lower_index env name a (subs : Code.subscript array) : unit -> int =
  let rank = Array.length a.dims in
  match Array.find_opt (fun s -> sub_slot env s = None) subs with
  | Some s -> fun () -> undefined_scalar s.Code.base
  | None when Array.length subs <> rank ->
      fun () -> rank_error name (Array.length subs) rank
  | None -> (
      let sl = env.slots in
      let dim d =
        let s = subs.(d) and lo, hi = a.dims.(d) in
        (Option.get (sub_slot env s), s.off - lo, hi - lo)
      in
      (* [x - lo] for dimension [d], checked against [0..hi-lo] *)
      let[@inline] rel s o ext d =
        let r = int_of_float (Array.unsafe_get sl s) + o in
        if r lor (ext - r) < 0 then
          bounds_error name a.dims.(d) (r + fst a.dims.(d)) d;
        r
      in
      match rank with
      | 1 ->
          let s0, o0, e0 = dim 0 in
          fun () -> rel s0 o0 e0 0
      | 2 ->
          let s0, o0, e0 = dim 0 and s1, o1, e1 = dim 1 in
          let st0 = a.strides.(0) in
          fun () ->
            let r0 = rel s0 o0 e0 0 in
            let r1 = rel s1 o1 e1 1 in
            (r0 * st0) + r1
      | 3 ->
          let s0, o0, e0 = dim 0 and s1, o1, e1 = dim 1 and s2, o2, e2 = dim 2 in
          let st0 = a.strides.(0) and st1 = a.strides.(1) in
          fun () ->
            let r0 = rel s0 o0 e0 0 in
            let r1 = rel s1 o1 e1 1 in
            let r2 = rel s2 o2 e2 2 in
            (r0 * st0) + (r1 * st1) + r2
      | _ ->
          let dims = Array.init rank dim in
          let strides = a.strides in
          fun () ->
            let flat = ref 0 in
            for d = 0 to rank - 1 do
              let s, o, e = Array.unsafe_get dims d in
              flat := !flat + (rel s o e d * Array.unsafe_get strides d)
            done;
            !flat)

let is_flop : Ir.Expr.binop -> bool = function
  | Add | Sub | Mul | Div | Pow | Min | Max -> true
  | Lt | Le | Gt | Ge | Eq | Ne | And | Or -> false

let rec lower_expr env (e : Code.expr) : unit -> float =
  let cnt = env.cnt in
  match e with
  | Const f -> fun () -> f
  | Scalar s -> (
      match defined_slot env s with
      | Some slot ->
          let sl = env.slots in
          fun () -> Array.unsafe_get sl slot
      | None -> fun () -> undefined_scalar s)
  | Load (x, subs) -> (
      match Hashtbl.find_opt env.allocs x with
      | None -> fun () -> undefined_array x
      | Some a -> (
          let index = lower_index env x a subs in
          let data = a.data in
          match env.trace with
          | None ->
              fun () ->
                let i = index () in
                cnt.loads <- cnt.loads + 1;
                Array.unsafe_get data i
          | Some touch ->
              let base = a.base in
              fun () ->
                let i = index () in
                cnt.loads <- cnt.loads + 1;
                touch ~addr:((base + i) * 8) ~write:false;
                Array.unsafe_get data i))
  | Unop (op, a) ->
      let fa = lower_expr env a in
      fun () ->
        let va = fa () in
        cnt.flops <- cnt.flops + 1;
        Ir.Expr.apply_unop op va
  | Binop (op, a, b) -> (
      let fa = lower_expr env a in
      let fb = lower_expr env b in
      match op with
      | Add ->
          fun () ->
            let va = fa () in
            let vb = fb () in
            cnt.flops <- cnt.flops + 1;
            va +. vb
      | Sub ->
          fun () ->
            let va = fa () in
            let vb = fb () in
            cnt.flops <- cnt.flops + 1;
            va -. vb
      | Mul ->
          fun () ->
            let va = fa () in
            let vb = fb () in
            cnt.flops <- cnt.flops + 1;
            va *. vb
      | Div ->
          fun () ->
            let va = fa () in
            let vb = fb () in
            cnt.flops <- cnt.flops + 1;
            va /. vb
      | _ ->
          let flop = if is_flop op then 1 else 0 in
          fun () ->
            let va = fa () in
            let vb = fb () in
            cnt.flops <- cnt.flops + flop;
            Ir.Expr.apply_binop op va vb)
  | Select (c, a, b) ->
      (* both branches are evaluated: elementwise Select is a blend,
         not control flow, matching array-language semantics *)
      let fc = lower_expr env c in
      let fa = lower_expr env a in
      let fb = lower_expr env b in
      fun () ->
        let vc = fc () in
        let va = fa () in
        let vb = fb () in
        if vc <> 0.0 then va else vb

let seq = function
  | [] -> fun () -> ()
  | [ f ] -> f
  | [ f; g ] -> fun () -> f (); g ()
  | fs ->
      let fs = Array.of_list fs in
      fun () ->
        for k = 0 to Array.length fs - 1 do
          (Array.unsafe_get fs k) ()
        done

(* Statements are lowered in execution order: [env.defined] is updated
   as assignments and loop headers are passed. *)
let rec lower_stmts env stmts =
  seq (List.rev (List.fold_left (fun acc s -> lower_stmt env s :: acc) [] stmts))

and lower_stmt env (s : Code.stmt) : unit -> unit =
  let sl = env.slots and cnt = env.cnt in
  match s with
  | Sassign (x, e) ->
      let fe = lower_expr env e in
      let slot = Hashtbl.find env.slot_of x in
      env.defined.(slot) <- true;
      fun () -> Array.unsafe_set sl slot (fe ())
  | Store (x, subs, e) -> (
      let fe = lower_expr env e in
      match Hashtbl.find_opt env.allocs x with
      | None ->
          fun () ->
            ignore (fe ());
            undefined_array x
      | Some a -> (
          let index = lower_index env x a subs in
          let data = a.data in
          match env.trace with
          | None ->
              fun () ->
                let v = fe () in
                let i = index () in
                cnt.stores <- cnt.stores + 1;
                cnt.iters <- cnt.iters + 1;
                Array.unsafe_set data i v
          | Some touch ->
              let base = a.base in
              fun () ->
                let v = fe () in
                let i = index () in
                cnt.stores <- cnt.stores + 1;
                cnt.iters <- cnt.iters + 1;
                touch ~addr:((base + i) * 8) ~write:true;
                Array.unsafe_set data i v))
  | For { lo; hi; _ } when lo > hi -> fun () -> ()
  | For { var; lo; hi; step; body } ->
      let slot = Hashtbl.find env.slot_of var in
      env.defined.(slot) <- true;
      let fbody = lower_stmts env body in
      if step >= 0 then fun () ->
        for i = lo to hi do
          Array.unsafe_set sl slot (float_of_int i);
          fbody ()
        done
      else fun () ->
        for i = hi downto lo do
          Array.unsafe_set sl slot (float_of_int i);
          fbody ()
        done

let run ?trace (p : Code.program) =
  let arrays = Hashtbl.create 16 in
  let base = ref 0 in
  List.iter
    (fun (a : Code.alloc) ->
      Hashtbl.replace arrays a.name (mk_arr !base a);
      (* pad allocations apart so distinct arrays never share a line *)
      base := !base + Code.alloc_volume a + 8)
    p.allocs;
  let slot_of = slot_table p in
  let n = Hashtbl.length slot_of + 1 in
  let env =
    {
      slots = Array.make n 0.0;
      slot_of;
      defined = Array.make n false;
      allocs = arrays;
      cnt = { loads = 0; stores = 0; flops = 0; iters = 0 };
      trace;
    }
  in
  List.iter
    (fun (s, v) ->
      let slot = Hashtbl.find slot_of s in
      env.slots.(slot) <- v;
      env.defined.(slot) <- true)
    p.scalars;
  Obs.span "interpret" (fun () -> lower_stmts env p.body ());
  let cnt = env.cnt in
  if Obs.enabled () then begin
    Obs.count "interp.loads" cnt.loads;
    Obs.count "interp.stores" cnt.stores;
    Obs.count "interp.element-refs" (cnt.loads + cnt.stores);
    Obs.count "interp.flops" cnt.flops;
    Obs.count "interp.iters" cnt.iters
  end;
  let scalars = Hashtbl.create 16 in
  Hashtbl.iter
    (fun name slot -> if env.defined.(slot) then Hashtbl.replace scalars name env.slots.(slot))
    slot_of;
  { arrays; scalars; live_out = p.live_out; cnt }

let counters (r : result) = r.cnt

let get_scalar r name =
  match Hashtbl.find_opt r.scalars name with
  | Some v -> v
  | None -> undefined_scalar name

let get_array r name =
  match Hashtbl.find_opt r.arrays name with
  | Some a -> Array.copy a.data
  | None -> undefined_array name

let read_point r name idx =
  match Hashtbl.find_opt r.arrays name with
  | Some a -> a.data.(flat_index name a idx)
  | None -> undefined_array name

(* The shared mixer lives in Support.Hash64 (NaN canonicalization
   included) so non-float hashes — Ir.Prog.fingerprint, the zapd cache
   key — use the same algebra; this alias keeps the executor-facing
   name and the float-only surface. *)
module Digest = struct
  type t = Support.Hash64.t

  let empty = Support.Hash64.empty
  let mix = Support.Hash64.mix_float
  let to_hex = Support.Hash64.to_hex
end

let checksum r =
  let digest = ref Digest.empty in
  let mix v = digest := Digest.mix !digest v in
  List.iter
    (fun name ->
      match Hashtbl.find_opt r.arrays name with
      | Some a -> Array.iter mix a.data
      | None -> (
          match Hashtbl.find_opt r.scalars name with
          | Some v -> mix v
          | None -> err "live-out %s not found" name))
    r.live_out;
  Digest.to_hex !digest

let footprint_bytes p = 8 * Code.program_elements p
