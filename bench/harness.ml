(* Shared machinery for the bench sections: the modeled measurement of
   one configuration, the command-line modes, and the section contract
   (rows, baseline files, text tables, failure gates) that every
   section follows — see docs/observability.md, "Bench rows".

   The computation side of a configuration (interpreter run + cache
   simulation) does not depend on the processor count — the evaluation
   scales total problem size with the machine, so the per-processor
   tile is constant (paper §5.4).  We therefore simulate the
   computation once per (benchmark, level, machine) and recost only the
   communication model per processor count. *)

(* ------------------------------------------------------------------ *)
(* Modes                                                               *)
(* ------------------------------------------------------------------ *)

(* With --json, sections emit one JSON object per line on stdout
   (machine-readable rows) instead of the formatted tables. *)
let json_mode = ref false

(* With --tiny, sections that support it shrink the problem to
   CI-smoke size (seconds instead of minutes). *)
let tiny_mode = ref false

(* --jobs N: worker domains for the matrix sections (fig7-11, spmd,
   plan, fuzz).  Rows are computed on a Support.Pool and printed
   sequentially in task order, so every section's output is
   byte-identical at any value. *)
let jobs = ref 1

(* The suite benchmark's default problem, or the CI-smoke tile under
   --tiny. *)
let tile_of (b : Suite.bench) =
  if !tiny_mode then Some (if b.rank = 1 then 256 else 16) else None

(* Planner budgets: the CI smoke gets a small one, the full solve is
   the committed baseline's job. *)
let search_cfg () =
  if !tiny_mode then
    { Plan.Search.default with Plan.Search.max_states = 600; beam_width = 2 }
  else Plan.Search.default

let ilp_cfg () =
  if !tiny_mode then
    { Plan.Ilp.default with Plan.Ilp.max_clusters = 400; max_pivots = 20_000 }
  else Plan.Ilp.default

(* A harness bug, not a finding: print the reason and stop. *)
let die fmt =
  Printf.ksprintf
    (fun m ->
      Printf.eprintf "bench: %s\n" m;
      exit 1)
    fmt

(* The sections work on programs that must compile, so an [Error] here
   is a harness bug, not a recoverable condition. *)
let ok_or_die = function
  | Ok c -> c
  | Error d -> die "%s" (Obs.Diagnostic.to_string d)

let compile ?may_fuse ?reduction_fusion ~level prog =
  ok_or_die
    (Compilers.Driver.(compile_opts (opts ?may_fuse ?reduction_fusion level))
       prog)

(* ------------------------------------------------------------------ *)
(* Modeled measurement                                                 *)
(* ------------------------------------------------------------------ *)

type computation = {
  flops : int;
  l1 : Cachesim.Cache.stats;
  l2 : Cachesim.Cache.stats option;
  footprint : int;
  checksum : string;
}

let simulate_code (m : Machine.t) code =
  let hier =
    Cachesim.Cache.Hierarchy.create ~l1:m.Machine.l1 ?l2:m.Machine.l2 ()
  in
  let trace ~addr ~write =
    Cachesim.Cache.Hierarchy.access hier ~addr ~write
  in
  let r = Exec.Interp.run ~trace code in
  let cnt = Exec.Interp.counters r in
  {
    flops = cnt.Exec.Interp.flops;
    l1 = Cachesim.Cache.Hierarchy.l1_stats hier;
    l2 = Cachesim.Cache.Hierarchy.l2_stats hier;
    footprint = Exec.Interp.footprint_bytes code;
    checksum = Exec.Interp.checksum r;
  }

let simulate m (c : Compilers.Driver.compiled) =
  simulate_code m c.Compilers.Driver.code

let time_ns (m : Machine.t) comp ~comm_ns =
  Machine.time_ns m
    {
      Machine.flops = comp.flops;
      l1_accesses = comp.l1.Cachesim.Cache.accesses;
      l1_misses = comp.l1.Cachesim.Cache.misses;
      l2_misses =
        (match comp.l2 with Some s -> s.Cachesim.Cache.misses | None -> 0);
      comm_ns;
    }

let comm_ns (m : Machine.t) ~procs (c : Compilers.Driver.compiled) =
  (Comm.Model.analyze ~machine:m ~procs ~opts:Comm.Model.all_on c)
    .Comm.Model.effective_ns

(* Full modeled time of one configuration on p processors. *)
let measure_time m ~procs comp compiled =
  time_ns m comp ~comm_ns:(comm_ns m ~procs compiled)

let improvement_pct ~baseline t = 100.0 *. (baseline -. t) /. t

(* Share of cache lookups that hit; 0 when nothing was looked up. *)
let hit_rate ~hits ~misses =
  let looked = hits + misses in
  if looked > 0 then float_of_int hits /. float_of_int looked else 0.0

(* ------------------------------------------------------------------ *)
(* Output                                                              *)
(* ------------------------------------------------------------------ *)

(* Every printer below knows its mode: the JSON ones print only under
   --json, the text ones only without it.  A section calls both and
   its stdout is either pure JSON lines or pure text. *)

let json_row fields =
  if !json_mode then print_endline (Obs.Json.to_string (Obs.Json.Obj fields))

(* A section's rows: one {"section": s, "row": {...}} line each. *)
let emit section to_json rows =
  List.iter
    (fun r ->
      json_row [ ("section", Obs.Json.String section); ("row", to_json r) ])
    rows

let row fmt =
  if !json_mode then Printf.ifprintf stdout fmt else Printf.printf fmt

(* A section with nothing to measure says so, in either mode. *)
let skip section reason =
  json_row
    [
      ("section", Obs.Json.String section);
      ("skipped", Obs.Json.Bool true);
      ("reason", Obs.Json.String reason);
    ];
  row "skipped: %s\n" reason

let underlined rule title =
  row "\n%s\n%s\n" title (String.make (String.length title) rule)

let heading = underlined '='
let subheading = underlined '-'

(* A text-table column: header, printf width (negative left-aligns,
   0 leaves the cell as rendered) and the cell renderer.  Cells wider
   than their column are never cut. *)
type 'r column = string * int * ('r -> string)

let table (columns : 'r column list) rows =
  let line cells =
    row "%s\n"
      (String.concat " "
         (List.map2 (fun (_, w, _) s -> Printf.sprintf "%*s" w s) columns cells))
  in
  line (List.map (fun (h, _, _) -> h) columns);
  List.iter (fun r -> line (List.map (fun (_, _, cell) -> cell r) columns)) rows

(* ------------------------------------------------------------------ *)
(* Baselines and gates                                                 *)
(* ------------------------------------------------------------------ *)

(* Only a full-size --json run writes the committed BENCH_*.json
   baselines; --tiny never overwrites them. *)
let writes_baseline () = !json_mode && not !tiny_mode

(* The document is {"schema", meta..., "rows", trailer...}, written to
   the current directory. *)
let write_baseline ~file ~schema ?(meta = []) ?(trailer = []) to_json rows =
  if writes_baseline () then begin
    let doc =
      Obs.Json.Obj
        ((("schema", Obs.Json.String schema) :: meta)
        @ (("rows", Obs.Json.List (List.map to_json rows)) :: trailer))
    in
    let oc = open_out file in
    output_string oc (Format.asprintf "%a@." Obs.Json.pp doc);
    close_out oc;
    Printf.eprintf "wrote %s (%d rows)\n" file (List.length rows)
  end

(* A section's checks: [check ok fmt ...] is the failure line when [ok]
   is false; [gate] prints each failure as one stderr line and exits 1
   — after the rows, so a failing run still reports. *)
let check ok fmt = Printf.ksprintf (fun m -> if ok then [] else [ m ]) fmt

let gate failures =
  if failures <> [] then begin
    List.iter prerr_endline failures;
    exit 1
  end
