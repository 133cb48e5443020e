module Json = Obs.Json
module Diag = Obs.Diagnostic

let protocol_version = 1

(* ------------------------------------------------------------------ *)
(* Request types                                                       *)
(* ------------------------------------------------------------------ *)

type source =
  | Bench of { name : string; tile : int option }
  | Text of { name : string; text : string }

type plan_mode = Greedy | Search | Ilp

let plan_mode_name = function
  | Greedy -> "greedy"
  | Search -> "search"
  | Ilp -> "ilp"

let plan_mode_of_name = function
  | "greedy" -> Some Greedy
  | "search" -> Some Search
  | "ilp" -> Some Ilp
  | _ -> None

type compile_opts = {
  level : string;
  plan : plan_mode;
  config : (string * float) list;
  merge : bool;
  simplify : bool;
  dump_ir : bool;
  dump_plan : bool;
  dump_c : bool;
  emit_c : bool;
}

let default_compile_opts =
  {
    level = "c2+f3";
    plan = Greedy;
    config = [];
    merge = false;
    simplify = false;
    dump_ir = false;
    dump_plan = false;
    dump_c = false;
    emit_c = false;
  }

type target = { machine : string; procs : int }

let default_target = { machine = "t3e"; procs = 1 }

type request =
  | Compile of { source : source; opts : compile_opts; target : target }
  | Run of {
      source : source;
      opts : compile_opts;
      target : target;
      spmd : bool;
      native : bool;
    }
  | Plan of { source : source; opts : compile_opts; target : target }
  | Batch of request list
  | Stats
  | Shutdown

(* ------------------------------------------------------------------ *)
(* Response types                                                      *)
(* ------------------------------------------------------------------ *)

type summary = {
  program : string;
  level : string;
  arrays_total : int;
  contracted_compiler : int;
  contracted_user : int;
  remaining : int;
  footprint_bytes : int;
  contracted : (string * string) list;
  merged_away : string list;
  fingerprint : string;
  dump_ir : string option;
  dump_plan : string option;
  dump_c : string option;
  emit_c : string option;
}

type perf = {
  machine : string;
  procs : int;
  time_ns : float;
  comp_ns : float;
  comm_ns : float;
  flops : int;
  loads : int;
  stores : int;
  l1_miss_pct : float;
  l2_miss_pct : float option;
  messages : int;
  msg_bytes : int;
  checksum : string;
}

type spmd_summary = {
  spmd_time_ns : float;
  supersteps : int;
  matches_model : bool;
  charged_messages : int;
  charged_bytes : int;
  wire_messages : int;
  wire_bytes : int;
  ghost_fills : int;
  unmodeled_exchanges : int;
  reduction_messages : int;
  spmd_l1_miss_pct : float option;
  spmd_checksum : string;
  report : Json.t;
}

(* Wall-clock is the single timing-dependent field: everything else in
   a Ran response is byte-identical between a cold and a warm serve of
   the same request, and the stats *shape* (field set and order) never
   varies with cache state. *)
type native_summary = {
  native_checksum : string;
  native_wall_ns : int64;
  native_compiler : string;  (** {!Native.Toolchain.describe} at build time *)
  native_units : int;  (** cluster translation units in the artifact *)
  native_matches : bool;  (** checksum equals the modeled run's *)
}

type cache_stats = {
  shards : int;
  cache_capacity : int;
  entries : int;
  hits : int;
  misses : int;
  evictions : int;
  insertions : int;
}

type server_stats = {
  requests : (string * int) list;
  cache : cache_stats;
  compiles_computed : int;
  plans_computed : int;
  natives_built : int;
  natives_reused : int;
  native_runs : int;
}

type response =
  | Compiled of {
      summary : summary;
      provenance : Plan.Driver.provenance option;
    }
  | Ran of {
      summary : summary;
      provenance : Plan.Driver.provenance option;
      perf : perf;
      spmd : spmd_summary option;
      native : native_summary option;
    }
  | Planned of {
      summary : summary;
      provenance : Plan.Driver.provenance option;
    }
  | Batch_reply of response list
  | Stats_reply of server_stats
  | Shutting_down
  | Failed of Diag.t

(* ------------------------------------------------------------------ *)
(* Shared validation                                                   *)
(* ------------------------------------------------------------------ *)

let machine_of_name name =
  match String.lowercase_ascii name with
  | "t3e" -> Ok Machine.t3e
  | "sp2" | "sp-2" -> Ok Machine.sp2
  | "paragon" -> Ok Machine.paragon
  | other ->
      Error (Diag.errorf ~phase:"cli" "unknown machine %S (t3e|sp2|paragon)" other)

let level_of_name name =
  match Compilers.Driver.level_of_name name with
  | Some l -> Ok l
  | None ->
      Error
        (Diag.errorf ~phase:"cli"
           "unknown level %S (baseline, f1, c1, f2, f3, c2, c2+f3, c2+f4, \
            c2+p; '+' may be omitted)"
           name)

(* ------------------------------------------------------------------ *)
(* Wire codecs: one description per type                               *)
(* ------------------------------------------------------------------ *)

open Json.Codec

(* a boolean member that is sent only when true *)
let flag name get =
  mem ~default:false ~omit:(fun o -> not (get o)) name bool get

(* an object with a single member holding the whole value *)
let only name c = obj Fun.id |> mem name c Fun.id |> finish
let empty = finish (obj ())

(* a source is a benchmark exactly when it has a "bench" member *)
let source_codec =
  let bench =
    obj (fun name tile -> (name, tile))
    |> mem "bench" string fst |> opt "tile" int snd |> finish
  in
  let text =
    obj (fun name text -> (name, text))
    |> mem "name" string fst |> mem "text" string snd |> finish
  in
  {
    enc =
      (function
      | Bench { name; tile } -> bench.enc (name, tile)
      | Text { name; text = t } -> text.enc (name, t));
    dec =
      (fun j ->
        if Option.is_none (Json.member "bench" j) then
          Result.map (fun (name, text) -> Text { name; text }) (text.dec j)
        else
          Result.map (fun (name, tile) -> Bench { name; tile }) (bench.dec j));
  }

let opts_codec =
  let d = default_compile_opts in
  obj (fun level plan config merge simplify dump_ir dump_plan dump_c emit_c ->
      {
        level;
        plan;
        config;
        merge;
        simplify;
        dump_ir;
        dump_plan;
        dump_c;
        emit_c;
      })
  |> mem ~default:d.level "level" string (fun (o : compile_opts) -> o.level)
  |> mem ~default:d.plan "plan"
       (enum "plan mode" plan_mode_name plan_mode_of_name)
       (fun o -> o.plan)
  |> mem ~default:d.config
       ~omit:(fun o -> o.config = [])
       "config" (assoc float)
       (fun o -> o.config)
  |> flag "merge" (fun o -> o.merge)
  |> flag "simplify" (fun o -> o.simplify)
  |> flag "dump_ir" (fun (o : compile_opts) -> o.dump_ir)
  |> flag "dump_plan" (fun (o : compile_opts) -> o.dump_plan)
  |> flag "dump_c" (fun (o : compile_opts) -> o.dump_c)
  |> flag "emit_c" (fun (o : compile_opts) -> o.emit_c)
  |> finish

let target_codec =
  let d = default_target in
  obj (fun machine procs : target -> { machine; procs })
  |> mem ~default:d.machine "machine" string (fun (t : target) -> t.machine)
  |> mem ~default:d.procs "procs" int (fun (t : target) -> t.procs)
  |> finish

(* the members every compiling request starts with *)
type job = { source : source; opts : compile_opts; target : target }

let with_job get o =
  o
  |> mem "source" source_codec (fun p -> (get p).source)
  |> mem ~default:default_compile_opts "opts" opts_codec (fun p -> (get p).opts)
  |> mem ~default:default_target "target" target_codec (fun p -> (get p).target)

(* "v" is never sent; absence means the current version *)
let versioned c =
  {
    c with
    dec =
      (fun j ->
        match Json.member "v" j with
        | None -> c.dec j
        | Some (Json.Int v) when v = protocol_version -> c.dec j
        | Some (Json.Int v) ->
            Error
              (Printf.sprintf "protocol version %d not supported (this is %d)"
                 v protocol_version)
        | Some _ -> Error "v must be an integer");
  }

let request_codec =
  fix @@ fun request ->
  let job =
    obj (fun source opts target -> { source; opts; target })
    |> with_job Fun.id |> finish
  in
  let run =
    obj (fun source opts target spmd native ->
        ({ source; opts; target }, spmd, native))
    |> with_job (fun (j, _, _) -> j)
    |> flag "spmd" (fun (_, s, _) -> s)
    |> flag "native" (fun (_, _, n) -> n)
    |> finish
  in
  versioned
  @@ variant "op" string
       [
         case "compile" job
           (fun { source; opts; target } -> Compile { source; opts; target })
           (function
             | Compile { source; opts; target } -> Some { source; opts; target }
             | _ -> None);
         case "run" run
           (fun ({ source; opts; target }, spmd, native) ->
             Run { source; opts; target; spmd; native })
           (function
             | Run { source; opts; target; spmd; native } ->
                 Some ({ source; opts; target }, spmd, native)
             | _ -> None);
         case "plan" job
           (fun { source; opts; target } -> Plan { source; opts; target })
           (function
             | Plan { source; opts; target } -> Some { source; opts; target }
             | _ -> None);
         case "batch"
           (only "requests" (list request))
           (fun rs -> Batch rs)
           (function Batch rs -> Some rs | _ -> None);
         case "stats" empty
           (fun () -> Stats)
           (function Stats -> Some () | _ -> None);
         case "shutdown" empty
           (fun () -> Shutdown)
           (function Shutdown -> Some () | _ -> None);
       ]

let summary_codec =
  let contracted =
    obj (fun x shape -> (x, shape))
    |> mem "array" string fst |> mem "shape" string snd |> finish
  in
  obj
    (fun program level arrays_total contracted_compiler contracted_user
         remaining footprint_bytes contracted merged_away fingerprint dump_ir
         dump_plan dump_c emit_c ->
      {
        program;
        level;
        arrays_total;
        contracted_compiler;
        contracted_user;
        remaining;
        footprint_bytes;
        contracted;
        merged_away;
        fingerprint;
        dump_ir;
        dump_plan;
        dump_c;
        emit_c;
      })
  |> mem "program" string (fun s -> s.program)
  |> mem "level" string (fun s -> s.level)
  |> mem "arrays_total" int (fun s -> s.arrays_total)
  |> mem "contracted_compiler" int (fun s -> s.contracted_compiler)
  |> mem "contracted_user" int (fun s -> s.contracted_user)
  |> mem "remaining" int (fun s -> s.remaining)
  |> mem "footprint_bytes" int (fun s -> s.footprint_bytes)
  |> mem "contracted" (list contracted) (fun s -> s.contracted)
  |> mem "merged_away" (list string) (fun s -> s.merged_away)
  |> mem "fingerprint" string (fun s -> s.fingerprint)
  |> opt "dump_ir" string (fun s -> s.dump_ir)
  |> opt "dump_plan" string (fun s -> s.dump_plan)
  |> opt "dump_c" string (fun s -> s.dump_c)
  |> opt "emit_c" string (fun s -> s.emit_c)
  |> finish

let perf_codec =
  obj
    (fun machine procs time_ns comp_ns comm_ns flops loads stores l1_miss_pct
         l2_miss_pct messages msg_bytes checksum ->
      {
        machine;
        procs;
        time_ns;
        comp_ns;
        comm_ns;
        flops;
        loads;
        stores;
        l1_miss_pct;
        l2_miss_pct;
        messages;
        msg_bytes;
        checksum;
      })
  |> mem "machine" string (fun p -> p.machine)
  |> mem "procs" int (fun p -> p.procs)
  |> mem "time_ns" float (fun p -> p.time_ns)
  |> mem "comp_ns" float (fun p -> p.comp_ns)
  |> mem "comm_ns" float (fun p -> p.comm_ns)
  |> mem "flops" int (fun p -> p.flops)
  |> mem "loads" int (fun p -> p.loads)
  |> mem "stores" int (fun p -> p.stores)
  |> mem "l1_miss_pct" float (fun p -> p.l1_miss_pct)
  |> opt "l2_miss_pct" float (fun p -> p.l2_miss_pct)
  |> mem "messages" int (fun p -> p.messages)
  |> mem "msg_bytes" int (fun p -> p.msg_bytes)
  |> mem "checksum" string (fun p -> p.checksum)
  |> finish

let spmd_codec =
  obj
    (fun spmd_time_ns supersteps matches_model charged_messages charged_bytes
         wire_messages wire_bytes ghost_fills unmodeled_exchanges
         reduction_messages spmd_l1_miss_pct spmd_checksum report ->
      {
        spmd_time_ns;
        supersteps;
        matches_model;
        charged_messages;
        charged_bytes;
        wire_messages;
        wire_bytes;
        ghost_fills;
        unmodeled_exchanges;
        reduction_messages;
        spmd_l1_miss_pct;
        spmd_checksum;
        report;
      })
  |> mem "time_ns" float (fun s -> s.spmd_time_ns)
  |> mem "supersteps" int (fun s -> s.supersteps)
  |> mem "matches_model" bool (fun s -> s.matches_model)
  |> mem "charged_messages" int (fun s -> s.charged_messages)
  |> mem "charged_bytes" int (fun s -> s.charged_bytes)
  |> mem "wire_messages" int (fun s -> s.wire_messages)
  |> mem "wire_bytes" int (fun s -> s.wire_bytes)
  |> mem "ghost_fills" int (fun s -> s.ghost_fills)
  |> mem "unmodeled_exchanges" int (fun s -> s.unmodeled_exchanges)
  |> mem "reduction_messages" int (fun s -> s.reduction_messages)
  |> opt "l1_miss_pct" float (fun s -> s.spmd_l1_miss_pct)
  |> mem "checksum" string (fun s -> s.spmd_checksum)
  |> mem "report" json (fun s -> s.report)
  |> finish

(* wall_ns travels as a JSON integer: runner wall clocks are far below
   2^62 ns (about 146 years) *)
let native_codec =
  obj (fun native_checksum wall native_compiler native_units native_matches ->
      {
        native_checksum;
        native_wall_ns = Int64.of_int wall;
        native_compiler;
        native_units;
        native_matches;
      })
  |> mem "checksum" string (fun n -> n.native_checksum)
  |> mem "wall_ns" int (fun n -> Int64.to_int n.native_wall_ns)
  |> mem "compiler" string (fun n -> n.native_compiler)
  |> mem "units" int (fun n -> n.native_units)
  |> mem "matches" bool (fun n -> n.native_matches)
  |> finish

let stats_codec =
  let cache =
    obj (fun shards cache_capacity entries hits misses evictions insertions ->
        {
          shards;
          cache_capacity;
          entries;
          hits;
          misses;
          evictions;
          insertions;
        })
    |> mem "shards" int (fun c -> c.shards)
    |> mem "capacity" int (fun c -> c.cache_capacity)
    |> mem "entries" int (fun c -> c.entries)
    |> mem "hits" int (fun c -> c.hits)
    |> mem "misses" int (fun c -> c.misses)
    |> mem "evictions" int (fun c -> c.evictions)
    |> mem "insertions" int (fun c -> c.insertions)
    |> finish
  in
  let native =
    obj (fun built reused runs -> (built, reused, runs))
    |> mem "built" int (fun (b, _, _) -> b)
    |> mem "reused" int (fun (_, r, _) -> r)
    |> mem "runs" int (fun (_, _, n) -> n)
    |> finish
  in
  obj
    (fun requests cache compiles_computed plans_computed
         (natives_built, natives_reused, native_runs) ->
      {
        requests;
        cache;
        compiles_computed;
        plans_computed;
        natives_built;
        natives_reused;
        native_runs;
      })
  |> mem "requests" (assoc int) (fun s -> s.requests)
  |> mem "cache" cache (fun s -> s.cache)
  |> mem "compiles_computed" int (fun s -> s.compiles_computed)
  |> mem "plans_computed" int (fun s -> s.plans_computed)
  |> mem "native" native (fun s ->
         (s.natives_built, s.natives_reused, s.native_runs))
  |> finish

(* summary and provenance: the members every compiled reply starts
   with, read from the part [get] of the payload *)
let compiled get o =
  o
  |> mem "summary" summary_codec (fun p -> fst (get p))
  |> opt "provenance" Plan.Driver.provenance_codec (fun p -> snd (get p))

(* {"ok":false,"error":D} for a failure, {"ok":true,"type":T,...}
   otherwise *)
let response_codec =
  fix @@ fun response ->
  let compiled_only = obj (fun s p -> (s, p)) |> compiled Fun.id |> finish in
  let ran =
    obj (fun s p perf spmd native -> ((s, p), perf, spmd, native))
    |> compiled (fun (c, _, _, _) -> c)
    |> mem "perf" perf_codec (fun (_, p, _, _) -> p)
    |> opt "spmd" spmd_codec (fun (_, _, s, _) -> s)
    |> opt "native" native_codec (fun (_, _, _, n) -> n)
    |> finish
  in
  let reply =
    variant "type" string
      [
        case "compiled" compiled_only
          (fun (summary, provenance) -> Compiled { summary; provenance })
          (function
            | Compiled { summary; provenance } -> Some (summary, provenance)
            | _ -> None);
        case "ran" ran
          (fun ((summary, provenance), perf, spmd, native) ->
            Ran { summary; provenance; perf; spmd; native })
          (function
            | Ran { summary; provenance; perf; spmd; native } ->
                Some ((summary, provenance), perf, spmd, native)
            | _ -> None);
        case "planned" compiled_only
          (fun (summary, provenance) -> Planned { summary; provenance })
          (function
            | Planned { summary; provenance } -> Some (summary, provenance)
            | _ -> None);
        case "batch"
          (only "responses" (list response))
          (fun rs -> Batch_reply rs)
          (function Batch_reply rs -> Some rs | _ -> None);
        case "stats" (only "stats" stats_codec)
          (fun s -> Stats_reply s)
          (function Stats_reply s -> Some s | _ -> None);
        case "shutting-down" empty
          (fun () -> Shutting_down)
          (function Shutting_down -> Some () | _ -> None);
      ]
  in
  variant "ok" bool
    [
      case true reply Fun.id (function Failed _ -> None | r -> Some r);
      case false (only "error" Diag.codec)
        (fun d -> Failed d)
        (function Failed d -> Some d | _ -> None);
    ]

let request_to_json r = request_codec.enc r
let request_of_json j = request_codec.dec j
let response_to_json r = response_codec.enc r
let response_of_json j = response_codec.dec j

let request_of_line line =
  match Json.of_string line with
  | Error e -> Error (Printf.sprintf "bad request line: %s" e)
  | Ok j -> request_of_json j
