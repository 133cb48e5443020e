(* The traced replay: one scheduled request re-executed in process,
   layer by layer, through each layer's public functions — the same
   steps [Service.Engine] takes for a [Run] request, with the same
   caching of compiled plans and native runners.  Spans wrap every
   layer call; an [Obs] recorder collects the counters the layers
   already emit.  Three calls exist only to split a layer's time:
   a second scalarization (the scalarize share of a compile), an
   untraced interpretation (the interpreter share of [Comm.Perf]) and
   a second communication analysis (its share of [Comm.Perf]); these
   run outside the recorder so they do not double any count. *)

module Api = Service.Api

type entry = { cc : Compilers.Driver.compiled; mutable runner : string option }

type t = {
  cache : (string, entry) Hashtbl.t;
  native_dir : string;
  recorder : Obs.t;
  mutable traced : bool;
  mutable builds : int;
  mutable native_units : int;
  mutable build_failures : int;
  mutable runner_wall_ns : float;
  mutable native_runs : int;
}

let create ~native_dir =
  {
    cache = Hashtbl.create 16;
    native_dir;
    recorder = Obs.create ();
    traced = false;
    builds = 0;
    native_units = 0;
    build_failures = 0;
    runner_wall_ns = 0.0;
    native_runs = 0;
  }

(* Names of the spans that only split another span's time. *)
let aux_spans = [ "sir.scalarize"; "exec.interp"; "comm.analyze" ]

let counters t = (Obs.report t.recorder).Obs.counters

(* Switch from warm-up to the traced run: only traced requests count. *)
let start_tracing t =
  t.traced <- true;
  t.native_units <- 0;
  t.build_failures <- 0;
  t.runner_wall_ns <- 0.0;
  t.native_runs <- 0

let ok = function
  | Ok v -> v
  | Error d -> failwith (Obs.Diagnostic.to_string d)

let level =
  match Compilers.Driver.level_of_name Api.default_compile_opts.Api.level with
  | Some l -> l
  | None -> assert false

(* Replays [c]; returns the modeled run's checksum, after checking
   that the untraced interpreter and (for native requests) the runner
   agree with it. *)
let run t (c : Sched.cell) =
  let span name f = if t.traced then Spans.with_span name f else f () in
  let obs f = if t.traced then Obs.run t.recorder f else f () in
  let b = Option.get (Suite.by_name c.Sched.bench) in
  let config =
    match c.Sched.tile with
    | Some tile -> [ (b.Suite.tile_config, float tile) ]
    | None -> []
  in
  let ast =
    span "zap.parse" (fun () -> obs (fun () -> Zap.Parser.parse b.Suite.source))
  in
  let prog =
    span "zap.elaborate" (fun () ->
        obs (fun () -> Zap.Elaborate.elaborate ~config ast))
  in
  let machine = ok (Api.machine_of_name c.Sched.machine) in
  let procs = c.Sched.procs in
  let key =
    Printf.sprintf "%s/%s@%s/%d" (Ir.Prog.fingerprint prog)
      (Api.plan_mode_name c.Sched.plan) machine.Machine.name procs
  in
  let entry =
    match Hashtbl.find_opt t.cache key with
    | Some e -> e
    | None ->
        let cc =
          match c.Sched.plan with
          | Api.Greedy ->
              span "compilers.compile" (fun () ->
                  obs (fun () ->
                      ok
                        (Compilers.Driver.compile_opts
                           (Compilers.Driver.opts level) prog)))
          | (Api.Search | Api.Ilp) as mode ->
              let cost =
                span "plan.cost_create" (fun () ->
                    obs (fun () ->
                        Plan.Cost.create
                          { Plan.Cost.machine; procs; opts = Comm.Model.all_on }
                          prog))
              in
              let search = { Plan.Search.default with Plan.Search.jobs = 1 } in
              if mode = Api.Ilp then
                span "plan.ilp" (fun () ->
                    obs (fun () ->
                        fst
                          (ok
                             (Plan.Driver.compile_ilp ~search
                                ~ilp:{ Plan.Ilp.default with Plan.Ilp.jobs = 1 }
                                ~cost prog))))
              else
                span "plan.search" (fun () ->
                    obs (fun () -> fst (ok (Plan.Driver.compile ~search ~cost prog))))
        in
        ignore
          (span "sir.scalarize" (fun () ->
               Sir.Scalarize.scalarize prog cc.Compilers.Driver.plan));
        let e = { cc; runner = None } in
        Hashtbl.replace t.cache key e;
        e
  in
  let code = entry.cc.Compilers.Driver.code in
  let plain = span "exec.interp" (fun () -> Exec.Interp.run code) in
  let perf =
    span "comm.perf" (fun () ->
        obs (fun () ->
            Comm.Perf.measure
              { Comm.Perf.machine; procs; comm = Comm.Model.all_on }
              entry.cc))
  in
  ignore
    (span "comm.analyze" (fun () ->
         Comm.Model.analyze ~machine ~procs ~opts:Comm.Model.all_on entry.cc));
  let sum = perf.Comm.Perf.checksum in
  if Exec.Interp.checksum plain <> sum then
    failwith "untraced interpreter disagrees with the modeled run";
  if c.Sched.native then begin
    let runner =
      match entry.runner with
      | Some r -> r
      | None -> (
          let dir = Filename.concat t.native_dir (string_of_int t.builds) in
          Unix.mkdir dir 0o755;
          t.builds <- t.builds + 1;
          match
            span "native.build" (fun () -> Native.Build.write_and_compile ~dir code)
          with
          | Ok built ->
              t.native_units <- t.native_units + built.Native.Build.units;
              entry.runner <- Some built.Native.Build.runner;
              built.Native.Build.runner
          | Error e ->
              t.build_failures <- t.build_failures + 1;
              failwith (Native.Build.error_to_string e))
    in
    match span "native.run" (fun () -> Native.Build.run_exe runner) with
    | Ok r ->
        t.native_runs <- t.native_runs + 1;
        t.runner_wall_ns <- t.runner_wall_ns +. Int64.to_float r.Native.Build.wall_ns;
        if r.Native.Build.checksum <> sum then
          failwith "native runner disagrees with the modeled run"
    | Error e -> failwith (Native.Build.error_to_string e)
  end;
  sum
