(* The independent oracle: every reply is checked against
   [Exec.Refinterp], the reference interpreter of the array program,
   which shares no code with the compiler, the scalar interpreter or
   the native runner. *)

module Api = Service.Api

type t = (string * int option, string) Hashtbl.t

let program (c : Sched.cell) =
  match Suite.by_name c.Sched.bench with
  | Some b -> Suite.program ?tile:c.Sched.tile b
  | None -> invalid_arg ("unknown benchmark " ^ c.Sched.bench)

(* Reference checksums for every (program, tile) in the schedule,
   computed before anything is timed.  [corrupt] flips the first
   digit of each, which must make every request fail. *)
let create ?(corrupt = false) cells =
  let t = Hashtbl.create 16 in
  Array.iter
    (fun (c : Sched.cell) ->
      let k = (c.Sched.bench, c.Sched.tile) in
      if not (Hashtbl.mem t k) then begin
        let sum = Exec.Refinterp.checksum (Exec.Refinterp.run (program c)) in
        let sum =
          if corrupt then
            String.mapi
              (fun i ch -> if i = 0 then (if ch = '0' then '1' else '0') else ch)
              sum
          else sum
        in
        Hashtbl.replace t k sum
      end)
    cells;
  t

let reference t (c : Sched.cell) = Hashtbl.find t (c.Sched.bench, c.Sched.tile)

let eps = Plan.Search.default.Plan.Search.eps

(* The planner's guarantee: the chosen plan prices no worse than any
   strategy it compared, and the strategy it names is the one whose
   cost it reports. *)
let provenance_ok (c : Sched.cell) (p : Plan.Driver.provenance option) =
  match (c.Sched.plan, p) with
  | Api.Greedy, None -> Ok ()
  | Api.Greedy, Some _ -> Error "greedy request carried search provenance"
  | (Api.Search | Api.Ilp), None -> Error "missing planner provenance"
  | mode, Some p ->
      let open Plan.Driver in
      let costs =
        [ ("greedy", p.greedy_total_ns); ("search", p.search_total_ns) ]
        @ (match p.ilp_total_ns with Some i -> [ ("ilp", i) ] | None -> [])
      in
      if mode = Api.Ilp && p.ilp_total_ns = None then
        Error "ilp request without an ilp cost"
      else if
        List.exists (fun (_, ns) -> p.chosen_total_ns > ns +. eps) costs
      then
        Error
          (Printf.sprintf "chosen %.1f ns is worse than %s" p.chosen_total_ns
             (String.concat ", "
                (List.map (fun (s, ns) -> Printf.sprintf "%s %.1f" s ns) costs)))
      else
        match List.assoc_opt p.strategy costs with
        | Some ns when Float.abs (ns -. p.chosen_total_ns) <= eps -> Ok ()
        | _ -> Error ("chosen cost is not the cost of " ^ p.strategy)

(* [Ok (time_ns, footprint_bytes)] for a correct reply. *)
let check t (c : Sched.cell) = function
  | Error m -> Error ("transport: " ^ m)
  | Ok (Api.Ran { summary; provenance; perf; native; _ }) -> (
      let want = reference t c in
      if perf.Api.checksum <> want then
        Error
          (Printf.sprintf "checksum %s, reference %s" perf.Api.checksum want)
      else
        match (c.Sched.native, native) with
        | true, None -> Error "native run missing"
        | true, Some n when not n.Api.native_matches ->
            Error ("native checksum differs: " ^ n.Api.native_checksum)
        | false, Some _ -> Error "unrequested native run"
        | _ -> (
            match provenance_ok c provenance with
            | Error m -> Error m
            | Ok () -> Ok (perf.Api.time_ns, summary.Api.footprint_bytes)))
  | Ok (Api.Failed d) -> Error (Obs.Diagnostic.to_string d)
  | Ok _ -> Error "reply is not Ran"
