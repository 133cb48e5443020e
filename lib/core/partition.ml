(* Cluster membership and the cluster-level digraph are computed once
   per partition, in [trivial] and [merge]; every query below is a
   lookup.  A partition is never mutated after construction. *)
type t = {
  asdg : Asdg.t;
  rep : int array;  (* statement -> representative (cluster minimum) *)
  members : int list array;  (* representative -> sorted members; [] elsewhere *)
  groups : int list list;  (* nonempty [members], ascending by representative *)
  cedges : (int * int) list;
      (* inter-cluster edges between representatives, sorted, unique *)
}

let compare_edge ((a, b) : int * int) (c, d) =
  if a <> c then Int.compare a c else Int.compare b d

(* Edges of the ASDG between distinct clusters, named through [rep]. *)
let quotient_edges edges rep =
  List.filter_map
    (fun (i, j) ->
      let ri = rep i and rj = rep j in
      if ri = rj then None else Some (ri, rj))
    edges
  |> List.sort_uniq compare_edge

let of_rep asdg rep cedges =
  let n = Array.length rep in
  let members = Array.make n [] in
  for i = n - 1 downto 0 do
    members.(rep.(i)) <- i :: members.(rep.(i))
  done;
  let groups =
    Array.fold_right (fun c acc -> if c = [] then acc else c :: acc) members []
  in
  { asdg; rep; members; groups; cedges }

(* ASDG edges are sorted, unique and point forward: already the
   trivial partition's cluster graph. *)
let trivial g = of_rep g (Array.init (Asdg.n g) Fun.id) (Asdg.edges g)

let of_reps g rep =
  let canonical (i, r) = r >= 0 && r <= i && rep.(r) = r in
  if Array.length rep <> Asdg.n g || not (Seq.for_all canonical (Array.to_seqi rep))
  then invalid_arg "Partition.of_reps: not a canonical representative vector";
  of_rep g (Array.copy rep) (quotient_edges (Asdg.edges g) (Array.get rep))

let asdg t = t.asdg
let cluster_of t i = t.rep.(i)
let clusters t = t.groups
let members t rep = t.members.(rep)
let n_clusters t = List.length t.groups
let same_cluster t i j = t.rep.(i) = t.rep.(j)
let inter_cluster_edges t = t.cedges

(* ---- cluster-level digraph helpers -------------------------------- *)

(* The cluster digraph lives in statement-index space: representatives
   are its nodes, every other index is an isolated node. *)
let has_cycle t edges =
  Support.Toposort.has_cycle ~n:(Array.length t.rep) ~edges

(* Staged: [grow t] builds the adjacency once, so a caller growing
   many cluster sets of one partition pays it once. *)
let grow t =
  let n = Array.length t.rep in
  let succ = Array.make n [] and pred = Array.make n [] in
  List.iter
    (fun (a, b) ->
      succ.(a) <- b :: succ.(a);
      pred.(b) <- a :: pred.(b))
    t.cedges;
  let reach adj from =
    let seen = Array.make n false in
    let rec dfs v =
      if not seen.(v) then begin
        seen.(v) <- true;
        List.iter dfs adj.(v)
      end
    in
    List.iter dfs from;
    seen
  in
  fun c ->
    let fwd = reach succ c and bwd = reach pred c in
    let out = ref [] in
    for k = n - 1 downto 0 do
      if fwd.(k) && bwd.(k) && not (List.mem k c) then out := k :: !out
    done;
    !out

(* ---- hypothetical merge ------------------------------------------- *)

(* The merged cluster keeps the smallest representative. *)
let merged_rep t c =
  let reps = List.map (cluster_of t) c in
  let keep = List.fold_left min max_int reps in
  let fused = Array.make (Array.length t.rep) false in
  List.iter (fun r -> fused.(r) <- true) reps;
  fun r -> if fused.(r) then keep else r

let merge t c =
  match c with
  | [] -> t
  | _ ->
      let f = merged_rep t c in
      of_rep t.asdg (Array.map f t.rep) (quotient_edges t.cedges f)

(* All statements of the given cluster set. *)
let stmts_of t c =
  List.concat_map (fun r -> members t r) c |> List.sort compare

(* Labels of the dependences running between statements of the set. *)
let labels_within t (stmt_set : int list) =
  let inside = Array.make (Array.length t.rep) false in
  List.iter (fun i -> inside.(i) <- true) stmt_set;
  Asdg.edges t.asdg
  |> List.concat_map (fun (i, j) ->
         if inside.(i) && inside.(j) then Asdg.labels t.asdg i j else [])

let udv (l : Dep.label) = l.udv
let intra_udvs t rep = List.map udv (labels_within t (members t rep))

let loop_structure t rep =
  match members t rep with
  | [] -> None
  | s :: _ ->
      let rank = Ir.Region.rank (Asdg.stmt t.asdg s).Ir.Nstmt.region in
      Loopstruct.find ~rank (intra_udvs t rep)

let acyclic t = not (has_cycle t t.cedges)

type veto =
  | Region_mismatch
  | Nonnull_flow
  | No_loop_structure
  | Cycle

(* Conditions (i), (ii) and (iv) of Definition 5 on one statement set,
   reporting the first violated condition.  [relax_flow] drops
   condition (ii) — the parallelism condition — to model sequential
   (scalar-compiler-style) fusion; legality is still guaranteed by
   condition (iv), since FIND-LOOP-STRUCTURE preserves flow dependences
   like any others. *)
let check_stmt_set ?(relax_flow = false) t ss =
  let g = t.asdg in
  let regions = List.map (fun i -> (Asdg.stmt g i).Ir.Nstmt.region) ss in
  let same_region =
    match regions with
    | [] -> true
    | r0 :: rest -> List.for_all (Ir.Region.equal r0) rest
  in
  if not same_region then Error Region_mismatch
  else
    let labels = labels_within t ss in
    if
      (not relax_flow)
      && not
           (List.for_all
              (fun (l : Dep.label) ->
                l.kind <> Dep.Flow || Support.Vec.is_null l.udv)
              labels)
    then Error Nonnull_flow
    else
      match ss with
      | [] -> Ok ()
      | s :: _ ->
          let rank = Ir.Region.rank (Asdg.stmt g s).Ir.Nstmt.region in
          if Loopstruct.find ~rank (List.map udv labels) <> None then Ok ()
          else Error No_loop_structure

let valid_stmt_set ?relax_flow t ss = check_stmt_set ?relax_flow t ss = Ok ()

let check_merge ?relax_flow t c =
  match c with
  | [] | [ _ ] -> Ok ()
  | _ -> (
      match check_stmt_set ?relax_flow t (stmts_of t c) with
      | Error _ as e -> e
      | Ok () ->
          (* the merged partition's cluster graph, without building it *)
          if has_cycle t (quotient_edges t.cedges (merged_rep t c)) then Error Cycle
          else Ok ())

let can_merge ?relax_flow t c = check_merge ?relax_flow t c = Ok ()

let contractible t x ~within =
  let cluster_set = List.sort_uniq compare within in
  Asdg.deps_on t.asdg x
  |> List.for_all (fun ((i, j), (l : Dep.label)) ->
         List.mem (cluster_of t i) cluster_set
         && List.mem (cluster_of t j) cluster_set
         && Support.Vec.is_null l.udv)

let is_valid ?relax_flow t =
  List.for_all (fun c -> valid_stmt_set ?relax_flow t c) (clusters t)
  && acyclic t

let first_ref_is_write t x =
  match Asdg.stmts_referencing t.asdg x with
  | [] -> false
  | i :: _ -> (Asdg.stmt t.asdg i).Ir.Nstmt.lhs = x

let pp ppf t =
  Format.fprintf ppf "@[<v>";
  List.iter
    (fun c ->
      Format.fprintf ppf "P%d = {%a}%s@," (List.hd c)
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
           (fun ppf i -> Format.fprintf ppf "s%d" i))
        c
        (match loop_structure t (List.hd c) with
        | Some p -> Format.asprintf "  p=%a" Loopstruct.pp p
        | None -> "  p=NOSOLUTION"))
    (clusters t);
  Format.fprintf ppf "@]"
