(* The repository benchmark.

   bench.exe --workload W --seed N --seconds S --trace 0|1
             --zapd PATH --workdir DIR [--nproc N] [--commit C]
             [--corrupt-oracle]

   Starts a private zapd (own socket, own artifact store) under DIR,
   drives it over its Unix socket with a closed loop, checks every
   reply against the reference interpreter, and prints one JSON line
   of metrics on stdout (everything else goes to stderr).  With
   --trace 1 it then replays the same requests in process, layer by
   layer, and prints the per-layer metrics instead.  Next to DIR it
   leaves requests-W-N.jsonl (one row per request) and, when traced,
   trace-W-N.jsonl (one row per span).  Exit status 1 when any request
   failed or a schedule self-check did not hold. *)

module Api = Service.Api
module Json = Obs.Json

let eprintf = Printf.eprintf

(* ------------------------------------------------------------------ *)
(* Command line                                                        *)
(* ------------------------------------------------------------------ *)

type args = {
  workload : Sched.workload;
  seed : int;
  seconds : float;
  trace : bool;
  zapd : string;
  workdir : string;
  nproc : int;
  commit : string;
  corrupt : bool;
}

let parse_args () =
  let workload = ref None and seed = ref None and seconds = ref 0.0 in
  let trace = ref (-1) and zapd = ref "" and workdir = ref "" in
  let nproc = ref (Domain.recommended_domain_count ()) in
  let commit = ref "unknown" and corrupt = ref false in
  let specs =
    [
      ( "--workload",
        Arg.String (fun s -> workload := Sched.of_name s),
        "W plan-cold, serve-warm or native-cold" );
      ("--seed", Arg.Int (fun n -> seed := Some n), "N seed of the request order");
      ("--seconds", Arg.Set_float seconds, "S nominal run length (sets the rounds)");
      ("--trace", Arg.Set_int trace, "0|1 1: per-layer replay instead");
      ("--zapd", Arg.Set_string zapd, "PATH daemon executable");
      ("--workdir", Arg.Set_string workdir, "DIR private directory for the run");
      ("--nproc", Arg.Set_int nproc, "N usable cores (provenance)");
      ("--commit", Arg.Set_string commit, "C commit measured (provenance)");
      ("--corrupt-oracle", Arg.Set corrupt, " corrupt the reference checksums");
    ]
  in
  let usage = "bench.exe --workload W --seed N --seconds S --trace 0|1 --zapd PATH --workdir DIR" in
  Arg.parse specs (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  match (!workload, !seed) with
  | Some workload, Some seed
    when !seconds > 0.0 && (!trace = 0 || !trace = 1) && !zapd <> "" && !workdir <> "" ->
      {
        workload;
        seed;
        seconds = !seconds;
        trace = !trace = 1;
        zapd = !zapd;
        workdir = !workdir;
        nproc = !nproc;
        commit = !commit;
        corrupt = !corrupt;
      }
  | _ ->
      Arg.usage specs usage;
      exit 2

(* ------------------------------------------------------------------ *)
(* Statistics                                                          *)
(* ------------------------------------------------------------------ *)

let sorted a =
  let a = Array.copy a in
  Array.sort compare a;
  a

let median a =
  let s = sorted a in
  let n = Array.length s in
  if n = 0 then nan
  else if n mod 2 = 1 then s.(n / 2)
  else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.0

(* The highest nearest-rank percentile with at least ten samples
   above it: rank n-10 of n.  Below eleven samples no such percentile
   exists and the maximum is reported instead. *)
let tail a =
  let s = sorted a in
  let n = Array.length s in
  if n <= 10 then (s.(n - 1), 100.0)
  else (s.(n - 11), 100.0 *. float (n - 10) /. float n)

let geomean l =
  exp (List.fold_left (fun acc x -> acc +. log x) 0.0 l /. float (List.length l))

(* Geometric mean shifted by one: defined when a value is 0, as a
   footprint is once contraction removes every array of a program. *)
let shifted_geomean l = geomean (List.map (fun x -> x +. 1.0) l) -. 1.0

let mean_of total n = if n = 0 then 0.0 else total /. float n
let ratio a b = if b = 0 then 0.0 else float a /. float b

(* ------------------------------------------------------------------ *)
(* Daemon set-up                                                       *)
(* ------------------------------------------------------------------ *)

(* One job: the in-process replay runs at one job too, so its times
   compare with the daemon's and its allocation counts are exact. *)
let daemon_jobs = 1

let failures = ref []

let fail fmt =
  Printf.ksprintf (fun m -> failures := m :: !failures) fmt

(* One set-up: spawn a daemon on a fresh socket and store, then send
   the workload's warm-up requests (checked like timed ones). *)
let start args oracle k =
  let socket = Filename.concat args.workdir (Printf.sprintf "zapd-%d.sock" k) in
  let native_root = Filename.concat args.workdir (Printf.sprintf "store-%d" k) in
  let t0 = Obs.now_ns () in
  let d = Daemon.spawn ~zapd:args.zapd ~jobs:daemon_jobs ~socket ~native_root in
  List.iter
    (fun c ->
      match Oracle.check oracle c (Ok (Daemon.roundtrip d (Sched.request c))) with
      | Ok _ -> ()
      | Error m -> fail "warm-up %s: %s" (Sched.describe c) m)
    (Sched.warmup args.workload);
  (d, (Obs.now_ns () -. t0) /. 1e9)

let finish (d : Daemon.t) =
  Daemon.stop d;
  Native.Build.remove_tree d.Daemon.native_root

(* ------------------------------------------------------------------ *)
(* Timed rounds                                                        *)
(* ------------------------------------------------------------------ *)

type round = {
  cells : Sched.cell array;
  load : Load.outcome;
  ok : bool array;
  cpu_ms : float;
  rss_mb : float;
  before : Api.server_stats;
  after : Api.server_stats;
}

(* distinct cell -> (modeled time_ns, footprint bytes) *)
let modeled : (string, float * int) Hashtbl.t = Hashtbl.create 16
let cell_key (c : Sched.cell) = Sched.describe { c with Sched.native = false }

(* The schedule self-check: the daemon's own counters must show
   exactly the work the round implies. *)
let check_stats args (r : round) =
  let n = Array.length r.cells in
  let delta f = f r.after - f r.before in
  let expect what f want =
    if delta f <> want then
      fail "stats: %s moved by %d, the round implies %d" what (delta f) want
  in
  let plans s = s.Api.plans_computed
  and built s = s.Api.natives_built
  and compiles s = s.Api.compiles_computed in
  match args.workload with
  | Sched.Plan_cold ->
      expect "plans_computed" plans n;
      expect "natives_built" built 0
  | Sched.Native_cold ->
      expect "natives_built" built n;
      expect "plans_computed" plans 0
  | Sched.Serve_warm ->
      expect "plans_computed" plans 0;
      expect "natives_built" built 0;
      expect "compiles_computed" compiles 0

let timed_round args oracle d cells =
  let before = Daemon.stats d in
  let cpu0 = Daemon.cpu_ms d in
  let load =
    Load.run ~socket:d.Daemon.socket ~clients:(Sched.clients args.workload)
      (Array.map Sched.request cells)
  in
  let cpu1 = Daemon.cpu_ms d in
  let rss_mb = Daemon.peak_rss_mb d in
  let after = Daemon.stats d in
  let ok =
    Array.mapi
      (fun i c ->
        match Oracle.check oracle c load.Load.replies.(i) with
        | Ok v ->
            Hashtbl.replace modeled (cell_key c) v;
            true
        | Error m ->
            fail "request %d (%s): %s" i (Sched.describe c) m;
            false)
      cells
  in
  let r = { cells; load; ok; cpu_ms = cpu1 -. cpu0; rss_mb; before; after } in
  check_stats args r;
  r

(* Cold workloads start a fresh daemon (socket, store) for every
   round, so each round is cold and each start is a set-up sample.
   serve-warm sets up three times, keeps the last daemon and runs its
   rounds back to back on it.  Returns the rounds and the set-up
   times. *)
let run_rounds args oracle (schedule : Sched.cell array array) daemon =
  match args.workload with
  | Sched.Serve_warm ->
      let setups =
        List.init 3 (fun k ->
            let d, s = start args oracle k in
            if k < 2 then finish d else daemon := Some d;
            s)
      in
      let d = Option.get !daemon in
      let rounds = Array.map (timed_round args oracle d) schedule in
      finish d;
      daemon := None;
      (rounds, setups)
  | Sched.Plan_cold | Sched.Native_cold ->
      (* a cold set-up is only a spawn: take nine samples in all *)
      let setups =
        ref
          (List.init
             (max 0 (9 - Array.length schedule))
             (fun k ->
               let d, s = start args oracle (Array.length schedule + k) in
               finish d;
               s))
      in
      let rounds =
        Array.mapi
          (fun k cells ->
            let d, s = start args oracle k in
            daemon := Some d;
            setups := s :: !setups;
            let r = timed_round args oracle d cells in
            finish d;
            daemon := None;
            r)
          schedule
      in
      (rounds, !setups)

let cache_hit_ratio (r : round) =
  let h = r.after.Api.cache.Api.hits - r.before.Api.cache.Api.hits in
  let m = r.after.Api.cache.Api.misses - r.before.Api.cache.Api.misses in
  ratio h (h + m)

let count_ok ok = Array.fold_left (fun k b -> if b then k + 1 else k) 0 ok

(* ------------------------------------------------------------------ *)
(* End-to-end metrics                                                  *)
(* ------------------------------------------------------------------ *)

let output_file args kind =
  Filename.concat
    (Filename.dirname args.workdir)
    (Printf.sprintf "%s-%s-%d.jsonl" kind (Sched.name args.workload) args.seed)

(* One row per request, in send order within each round. *)
let write_requests args (rounds : round array) =
  let oc = open_out (output_file args "requests") in
  Array.iteri
    (fun k r ->
      Array.iteri
        (fun i c ->
          output_string oc
            (Json.to_string
               (Json.Obj
                  [
                    ("round", Json.Int k);
                    ("cell", Json.String (Sched.describe c));
                    ("latency_ms", Json.Float r.load.Load.latency_ms.(i));
                    ("ok", Json.Bool r.ok.(i));
                  ]));
          output_char oc '\n')
        r.cells)
    rounds;
  close_out oc

let end_to_end ~setups (rounds : round array) =
  let per_round f = median (Array.map f rounds) in
  let lat = Array.concat (Array.to_list (Array.map (fun r -> r.load.Load.latency_ms) rounds)) in
  let n = Array.length lat in
  let good = Array.fold_left (fun k r -> k + count_ok r.ok) 0 rounds in
  let tail_ms, pct = tail lat in
  eprintf "latency tail: p%.1f of %d samples = %.2f ms\n" pct n tail_ms;
  let cells = Hashtbl.fold (fun _ v acc -> v :: acc) modeled [] in
  let geo mean f = if cells = [] then nan else mean (List.map f cells) in
  [
    ("setup_s", median (Array.of_list setups), "s");
    ( "requests_per_s",
      per_round (fun r -> float (count_ok r.ok) /. r.load.Load.wall_s),
      "1/s" );
    ("latency_p50_ms", median lat, "ms");
    ("latency_tail_ms", tail_ms, "ms");
    ( "cpu_ms_per_request",
      per_round (fun r -> r.cpu_ms /. float (Array.length r.cells)),
      "ms" );
    ("peak_rss_mb", per_round (fun r -> r.rss_mb), "MB");
    ("correct_frac", float good /. float n, "fraction");
    ("modeled_ms_geomean", geo geomean (fun (ns, _) -> ns /. 1e6), "model-ms");
    ( "footprint_kb_geomean",
      geo shifted_geomean (fun (_, b) -> float b /. 1024.0),
      "KB" );
  ]

(* ------------------------------------------------------------------ *)
(* The traced in-process replay                                        *)
(* ------------------------------------------------------------------ *)

let codec_reps = 20

(* Encode and decode the request and its reply, as the two ends of the
   wire do. *)
let codec req resp =
  for _ = 1 to codec_reps do
    let line = Json.to_string (Api.request_to_json req) in
    ignore (Api.request_of_line line);
    let line = Json.to_string (Api.response_to_json resp) in
    match Json.of_string line with
    | Ok j -> ignore (Api.response_of_json j)
    | Error m -> failwith m
  done

let per_layer args oracle (t : round) =
  let cells = t.cells in
  let n = Array.length cells in
  let engine =
    Service.Engine.create ~jobs:daemon_jobs
      ~native_root:(Filename.concat args.workdir "inproc-store")
      ()
  in
  let native_dir = Filename.concat args.workdir "replay-native" in
  Unix.mkdir native_dir 0o755;
  let replay = Replay.create ~native_dir in
  (* the same warm-up the daemon got, untraced *)
  List.iter
    (fun c ->
      ignore (Service.Engine.handle engine (Sched.request c));
      ignore (Replay.run replay c))
    (Sched.warmup args.workload);
  Replay.start_tracing replay;
  Array.iteri
    (fun i c ->
      Spans.for_request i (fun () ->
          let req = Sched.request c in
          let resp =
            Spans.with_span "service.handle" (fun () ->
                Service.Engine.handle engine req)
          in
          Spans.with_span "service.codec" (fun () -> codec req resp);
          match Spans.with_span "request" (fun () -> Replay.run replay c) with
          | sum when sum = Oracle.reference oracle c -> ()
          | sum -> fail "replay %d (%s): checksum %s" i (Sched.describe c) sum
          | exception Failure m -> fail "replay %d (%s): %s" i (Sched.describe c) m))
    cells;
  let spans = Spans.all () in
  let total name =
    List.fold_left
      (fun acc s -> if s.Spans.name = name then acc +. Spans.duration s else acc)
      0.0 spans
  in
  let words names =
    List.fold_left
      (fun acc s ->
        if List.mem s.Spans.name names then acc +. s.Spans.alloc_words else acc)
      0.0 spans
  in
  let ms name = total name /. 1e6 /. float n in
  let mwords names = words names /. 1e6 /. float n in
  let counters = Replay.counters replay in
  let count k = Option.value ~default:0 (List.assoc_opt k counters) in
  (* layer self time: each splitting call's time moves out of the
     span it splits *)
  let planned =
    List.filter_map
      (fun s ->
        if s.Spans.name = "plan.search" || s.Spans.name = "plan.ilp" then
          Some s.Spans.request
        else None)
      spans
  in
  let scalarize = total "sir.scalarize" in
  let scalarize_planned =
    List.fold_left
      (fun acc s ->
        if s.Spans.name = "sir.scalarize" && List.mem s.Spans.request planned
        then acc +. Spans.duration s
        else acc)
      0.0 spans
  in
  let interp = total "exec.interp" and analyze = total "comm.analyze" in
  let layers =
    [
      ("zap", total "zap.parse" +. total "zap.elaborate");
      ( "compilers",
        total "compilers.compile" -. (scalarize -. scalarize_planned) );
      ( "plan",
        total "plan.cost_create" +. total "plan.search" +. total "plan.ilp"
        -. scalarize_planned );
      ("sir", scalarize);
      ("exec", interp);
      ("cachesim", Float.max 0.0 (total "comm.perf" -. interp -. analyze));
      ("comm", analyze);
      ("native", total "native.build" +. total "native.run");
    ]
  in
  let aux = List.fold_left (fun acc s -> acc +. total s) 0.0 Replay.aux_spans in
  let traced_ns = total "request" -. aux in
  let handle_ns = total "service.handle" in
  let share name = 100.0 *. List.assoc name layers /. traced_ns in
  Spans.write (output_file args "trace");
  let roundtrip_ms =
    Array.fold_left ( +. ) 0.0 t.load.Load.latency_ms /. float n
  in
  let delta f = float (f t.after - f t.before) in
  let refs = count "interp.element-refs" in
  [
    ("zap.parse_ms", ms "zap.parse", "ms");
    ("zap.elaborate_ms", ms "zap.elaborate", "ms");
    ("zap.alloc_mwords", mwords [ "zap.parse"; "zap.elaborate" ], "Mwords");
    ("compilers.compile_ms", ms "compilers.compile", "ms");
    ("compilers.alloc_mwords", mwords [ "compilers.compile" ], "Mwords");
    ("fusion.accept_ratio", ratio (count "fusion.accepted") (count "fusion.attempted"), "ratio");
    ( "contraction.ratio",
      ratio (count "contraction.performed") (count "contraction.candidates"),
      "ratio" );
    ("dep.edges", float (count "dep.edges"), "count");
    ("plan.cost_create_ms", ms "plan.cost_create", "ms");
    ("plan.search_ms", ms "plan.search", "ms");
    ("plan.ilp_ms", ms "plan.ilp", "ms");
    ( "plan.alloc_mwords",
      mwords [ "plan.cost_create"; "plan.search"; "plan.ilp" ],
      "Mwords" );
    ("plan.states_generated", float (count "plan.states-generated"), "count");
    ( "plan.dedup_ratio",
      ratio (count "plan.states-deduped") (count "plan.states-generated"),
      "ratio" );
    ("plan.nodes_expanded", float (count "plan.nodes-expanded"), "count");
    ("plan.beam_cutoffs", float (count "plan.beam-cutoffs"), "count");
    ("plan.ilp_columns", float (count "plan.ilp.columns"), "count");
    ("plan.ilp_pivots", float (count "plan.ilp.pivots"), "count");
    ( "plan.fallbacks",
      float (count "plan.fallback-greedy" + count "plan.ilp.fallback"),
      "count" );
    ("sir.scalarize_ms", ms "sir.scalarize", "ms");
    ("exec.interp_ms", ms "exec.interp", "ms");
    ("exec.element_refs", float refs, "count");
    ("exec.flops", float (count "interp.flops"), "count");
    ("exec.ns_per_ref", (if refs = 0 then 0.0 else interp /. float refs), "ns");
    ("exec.alloc_mwords", mwords [ "exec.interp" ], "Mwords");
    ( "cachesim.ms",
      List.assoc "cachesim" layers /. 1e6 /. float n,
      "ms" );
    ("cachesim.l1_misses", float (count "cache.l1.misses"), "count");
    ("cachesim.l2_misses", float (count "cache.l2.misses"), "count");
    ("comm.analyze_ms", ms "comm.analyze", "ms");
    ("comm.perf_ms", ms "comm.perf", "ms");
    ("comm.messages", float (count "comm.messages"), "count");
    ("native.build_ms", ms "native.build", "ms");
    ("native.units", float replay.Replay.native_units, "count");
    ("native.run_ms", ms "native.run", "ms");
    ( "native.runner_wall_us",
      mean_of (replay.Replay.runner_wall_ns /. 1e3) replay.Replay.native_runs,
      "us" );
    ("native.build_failures", float replay.Replay.build_failures, "count");
    ("service.handle_ms", handle_ns /. 1e6 /. float n, "ms");
    ("service.roundtrip_ms", roundtrip_ms, "ms");
    ("service.wait_ms", roundtrip_ms -. (handle_ns /. 1e6 /. float n), "ms");
    ( "service.codec_us",
      total "service.codec" /. 1e3 /. float (n * codec_reps),
      "us" );
    ("service.cache_hit_ratio", cache_hit_ratio t, "ratio");
    ("service.plans_computed", delta (fun s -> s.Api.plans_computed), "count");
    ("service.compiles_computed", delta (fun s -> s.Api.compiles_computed), "count");
    ("service.natives_built", delta (fun s -> s.Api.natives_built), "count");
    ("service.natives_reused", delta (fun s -> s.Api.natives_reused), "count");
  ]
  @ List.map (fun (l, _) -> ("share." ^ l ^ "_pct", share l, "%")) layers
  @ [
      ("trace.requests_per_s", float n /. (traced_ns /. 1e9), "1/s");
      ("trace.untraced_requests_per_s", float n /. (handle_ns /. 1e9), "1/s");
      ("trace.overhead_pct", 100.0 *. (traced_ns -. handle_ns) /. handle_ns, "%");
    ]

(* ------------------------------------------------------------------ *)
(* Main                                                                *)
(* ------------------------------------------------------------------ *)

let provenance args schedule =
  let clients = Sched.clients args.workload in
  Json.Obj
    [
      ("workload", Json.String (Sched.name args.workload));
      ("seed", Json.Int args.seed);
      ("rounds", Json.Int (Array.length schedule));
      ("requests", Json.Int (Array.fold_left (fun k r -> k + Array.length r) 0 schedule));
      ("clients", Json.Int clients);
      ("loop", Json.String "closed");
      ("daemon_jobs", Json.Int daemon_jobs);
      ("nproc", Json.Int args.nproc);
      ("recommended_domains", Json.Int (Domain.recommended_domain_count ()));
      ("oversubscribed", Json.Bool (clients > args.nproc || daemon_jobs > args.nproc));
      ("ocaml", Json.String Sys.ocaml_version);
      ("cc", Json.String (Native.Toolchain.describe ()));
      ("commit", Json.String args.commit);
    ]

let emit ~correct ~attempted ~failed metrics =
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool correct);
            ("attempted", Json.Int attempted);
            ("failed", Json.Int failed);
            ( "metrics",
              Json.Obj
                (List.map
                   (fun (k, v, unit) ->
                     (k, Json.Obj [ ("value", Json.Float v); ("unit", Json.String unit) ]))
                   metrics) );
          ]))

let () =
  let args = parse_args () in
  (* the traced run replays one round *)
  let rounds = if args.trace then 1 else Sched.rounds args.workload ~seconds:args.seconds in
  let schedule = Sched.make args.workload ~seed:args.seed ~rounds in
  let cells = Array.concat (Array.to_list schedule) in
  eprintf "provenance: %s\n%!" (Json.to_string (provenance args schedule));
  if not (Native.Toolchain.available ()) then begin
    eprintf "no C compiler on PATH: native requests cannot run\n";
    exit 2
  end;
  let t0 = Obs.now_ns () in
  let oracle =
    Oracle.create ~corrupt:args.corrupt
      (Array.append cells (Array.of_list (Sched.warmup args.workload)))
  in
  eprintf "oracle: %.2f s\n%!" ((Obs.now_ns () -. t0) /. 1e9);
  let daemon = ref None in
  match
    let rounds, setups = run_rounds args oracle schedule daemon in
    let metrics =
      if args.trace then per_layer args oracle rounds.(0)
      else end_to_end ~setups rounds
    in
    write_requests args rounds;
    (rounds, metrics)
  with
  | exception (Daemon.Failed m | Failure m | Sys_error m) ->
      Option.iter Daemon.kill !daemon;
      eprintf "benchmark aborted: %s\n" m;
      exit 2
  | exception Unix.Unix_error (e, f, a) ->
      Option.iter Daemon.kill !daemon;
      eprintf "benchmark aborted: %s(%s): %s\n" f a (Unix.error_message e);
      exit 2
  | rounds, metrics ->
      let n = Array.length cells in
      let failed = n - Array.fold_left (fun k r -> k + count_ok r.ok) 0 rounds in
      let problems = List.rev !failures in
      List.iteri (fun i m -> if i < 10 then eprintf "FAIL %s\n" m) problems;
      List.iter (fun (k, v, u) -> eprintf "%-32s %14.4f %s\n" k v u) metrics;
      let correct = problems = [] in
      emit ~correct ~attempted:n ~failed metrics;
      exit (if correct then 0 else 1)
