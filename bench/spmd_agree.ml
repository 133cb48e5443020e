(* SPMD agreement: execute every benchmark on the simulated processor
   grid and hold the executed run against the analytical model.

   For each (benchmark, level, procs) configuration the engine's
   charged traffic must equal Comm.Model.analyze exactly and the
   distributed checksum must equal the sequential interpreter's; any
   disagreement fails the bench.  The wire-level counts (actual
   sender→receiver pairs, clipped payloads) ride along for inspection
   — they legitimately differ from the charged ones, see docs/spmd.md.

   The baseline is BENCH_spmd_agreement.json: executed vs predicted
   traffic, deterministic, so a re-run diffs clean when nothing
   changed. *)

let machine = Machine.t3e

let levels = Compilers.Driver.[ Baseline; F1; C1; F2; F3; C2; C2F3 ]

let procs_list = [ 4; 16 ]

type rowr = {
  bench : string;
  level : string;
  procs : int;
  agree : bool;
  seq_sum : string;
  spmd_sum : string;
  predicted_messages : int;
  predicted_bytes : int;
  predicted_effective_ns : float;
  charged_messages : int;
  charged_bytes : int;
  wire_messages : int;
  wire_bytes : int;
  executed_comm_ns : float;
  time_ns : float;
  unmodeled : int;
}

let row_json r =
  Obs.Json.Obj
    [
      ("bench", Obs.Json.String r.bench);
      ("level", Obs.Json.String r.level);
      ("procs", Obs.Json.Int r.procs);
      ("agree", Obs.Json.Bool r.agree);
      ("checksum", Obs.Json.String r.spmd_sum);
      ( "predicted",
        Obs.Json.Obj
          [
            ("messages", Obs.Json.Int r.predicted_messages);
            ("bytes", Obs.Json.Int r.predicted_bytes);
            ("effective_ns", Obs.Json.Float r.predicted_effective_ns);
          ] );
      ( "executed",
        Obs.Json.Obj
          [
            ("messages", Obs.Json.Int r.charged_messages);
            ("bytes", Obs.Json.Int r.charged_bytes);
            ("wire_messages", Obs.Json.Int r.wire_messages);
            ("wire_bytes", Obs.Json.Int r.wire_bytes);
            ("comm_ns", Obs.Json.Float r.executed_comm_ns);
            ("time_ns", Obs.Json.Float r.time_ns);
            ("unmodeled_exchanges", Obs.Json.Int r.unmodeled);
          ] );
    ]

let columns : rowr Harness.column list =
  let pair a b = Printf.sprintf "%4d/%-4d" a b in
  [
    ("bench", -8, fun r -> r.bench);
    ("level", -9, fun r -> r.level);
    ("procs", 5, fun r -> string_of_int r.procs);
    ("msgs p/e", 9, fun r -> pair r.predicted_messages r.charged_messages);
    ("bytes p/e", 9, fun r -> pair r.predicted_bytes r.charged_bytes);
    ( "wire m/B",
      10,
      fun r -> Printf.sprintf "%5d/%-6d" r.wire_messages r.wire_bytes );
    ("comm ns", 10, fun r -> Printf.sprintf "%.0f" r.executed_comm_ns);
    ("unmod", 6, fun r -> string_of_int r.unmodeled);
    ("ok", 0, fun r -> if r.agree then "ok" else "DISAGREES");
  ]

let measure (b : Suite.bench) level procs =
  let prog = Suite.program ?tile:(Harness.tile_of b) b in
  let c = Harness.compile ~level prog in
  let seq_sum = Exec.Interp.checksum (Exec.Interp.run c.Compilers.Driver.code) in
  let a = Comm.Model.analyze ~machine ~procs ~opts:Comm.Model.all_on c in
  let r =
    Spmd.execute { Spmd.machine; procs; opts = Comm.Model.all_on; cachesim = false } c
  in
  let comm_ns =
    Array.fold_left
      (fun acc (p : Spmd.proc_counters) -> max acc p.Spmd.comm_ns)
      0.0 r.Spmd.per_proc
  in
  {
    bench = b.name;
    level = Compilers.Driver.level_name level;
    procs;
    agree =
      String.equal r.Spmd.checksum seq_sum
      && r.Spmd.charged_messages = a.Comm.Model.messages
      && r.Spmd.charged_bytes = a.Comm.Model.bytes
      && r.Spmd.unmodeled_exchanges = 0;
    seq_sum;
    spmd_sum = r.Spmd.checksum;
    predicted_messages = a.Comm.Model.messages;
    predicted_bytes = a.Comm.Model.bytes;
    predicted_effective_ns = a.Comm.Model.effective_ns;
    charged_messages = r.Spmd.charged_messages;
    charged_bytes = r.Spmd.charged_bytes;
    wire_messages = r.Spmd.wire_messages;
    wire_bytes = r.Spmd.wire_bytes;
    executed_comm_ns = comm_ns;
    time_ns = r.Spmd.time_ns;
    unmodeled = r.Spmd.unmodeled_exchanges;
  }

let section () =
  Harness.heading
    "SPMD agreement: executed grid run vs analytical model (Cray T3E)";
  (* one task per (benchmark, level, procs) cell; Pool.map keeps cell
     order, so rows (and the committed baseline) are independent of
     --jobs *)
  let cells =
    List.concat_map
      (fun b ->
        List.concat_map
          (fun level -> List.map (fun procs -> (b, level, procs)) procs_list)
          levels)
      Suite.all
  in
  let rows =
    Support.Pool.map ~domains:!Harness.jobs
      (fun (b, level, procs) -> measure b level procs)
      cells
  in
  Harness.emit "spmd" row_json rows;
  Harness.write_baseline ~file:"BENCH_spmd_agreement.json"
    ~schema:"fuzion/bench-spmd-agreement/1"
    ~meta:[ ("machine", Obs.Json.String machine.Machine.name) ]
    row_json rows;
  Harness.table columns rows;
  Harness.gate
    (List.concat_map
       (fun r ->
         Harness.check r.agree
           "spmd disagreement: %s @ %s x%d (checksum %s/%s, messages %d/%d, \
            bytes %d/%d, unmodeled %d)"
           r.bench r.level r.procs r.seq_sum r.spmd_sum r.predicted_messages
           r.charged_messages r.predicted_bytes r.charged_bytes r.unmodeled)
       rows)
