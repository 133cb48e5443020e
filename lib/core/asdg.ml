type t = {
  stmts : Ir.Nstmt.t array;
  edge_tbl : (int * int, Dep.label list) Hashtbl.t;
  edge_list : (int * int) list;  (* sorted, nonempty labels only *)
  (* Per-array index, built once: arrays are interned to dense ids in
     first-occurrence order.  Read-only after [build], so planner
     workers on several domains may query one [t] concurrently. *)
  ids : (string, int) Hashtbl.t;
  vars : string list;  (* id order *)
  refs : int list array;  (* id -> referencing statements, ascending *)
  deps : ((int * int) * Dep.label) list array;  (* id -> deps_on *)
}

let build stmt_list =
  let stmts = Array.of_list stmt_list in
  let n = Array.length stmts in
  let edge_tbl = Hashtbl.create 64 in
  let edge_list = ref [] in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      match Dep.between stmts.(i) stmts.(j) with
      | [] -> ()
      | labels ->
          Hashtbl.replace edge_tbl (i, j) labels;
          edge_list := (i, j) :: !edge_list
    done
  done;
  if Obs.enabled () then Obs.count "dep.edges" (List.length !edge_list);
  let edge_list = List.sort compare !edge_list in
  let ids = Hashtbl.create 16 in
  let vars = ref [] and rev_refs = ref [] in
  Array.iteri
    (fun i s ->
      List.iter
        (fun x ->
          let k =
            match Hashtbl.find_opt ids x with
            | Some k -> k
            | None ->
                let k = Hashtbl.length ids in
                Hashtbl.add ids x k;
                vars := x :: !vars;
                k
          in
          rev_refs := (k, i) :: !rev_refs)
        (Ir.Nstmt.arrays s))
    stmts;
  let nv = Hashtbl.length ids in
  (* consing from the reversed lists leaves each bucket ascending *)
  let refs = Array.make nv [] in
  List.iter (fun (k, i) -> refs.(k) <- i :: refs.(k)) !rev_refs;
  let deps = Array.make nv [] in
  List.iter
    (fun e ->
      List.iter
        (fun (l : Dep.label) ->
          let k = Hashtbl.find ids l.var in
          deps.(k) <- (e, l) :: deps.(k))
        (List.rev (Hashtbl.find edge_tbl e)))
    (List.rev edge_list);
  { stmts; edge_tbl; edge_list; ids; vars = List.rev !vars; refs; deps }

let n t = Array.length t.stmts
let stmt t i = t.stmts.(i)
let stmts t = t.stmts
let edges t = t.edge_list

let labels t i j =
  match Hashtbl.find_opt t.edge_tbl (i, j) with Some l -> l | None -> []

let vars t = t.vars

let lookup t tbl x =
  match Hashtbl.find_opt t.ids x with Some k -> tbl.(k) | None -> []

let deps_on t x = lookup t t.deps x
let stmts_referencing t x = lookup t t.refs x

let pp ppf t =
  Format.fprintf ppf "@[<v>";
  Array.iteri
    (fun i s -> Format.fprintf ppf "s%d: %a@," i Ir.Nstmt.pp s)
    t.stmts;
  List.iter
    (fun (i, j) ->
      Format.fprintf ppf "s%d -> s%d  {%a}@," i j
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
           Dep.pp)
        (labels t i j))
    t.edge_list;
  Format.fprintf ppf "@]"
