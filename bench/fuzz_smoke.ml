(* Differential-fuzzing smoke: a fixed-seed slice of the zapc --fuzz
   campaign, sized for CI.  Every generated program must produce the
   same live-out digest on every executor (see Fuzz.Oracle); a
   divergence fails the bench with the oracle report plus a
   self-contained repro.

   The campaign runs through Fuzz.Campaign on --jobs domains; the seed
   is pinned and per-case streams are split sequentially, so a run is
   bit-reproducible at any domain count: a failure here is a
   regression, never flakiness.  Rows are one per case (digest,
   backends checked, skips).

   The baseline is BENCH_fuzz_parallel.json: the campaign timed at 1
   worker and at 4 workers, after asserting that the two produce
   identical rows (the determinism contract, enforced, not assumed). *)

let seed = 1L
let budget () = if !Harness.tiny_mode then 25 else 150
let parallel_jobs = 4

let row_json (c : Fuzz.Campaign.case) =
  let r = c.Fuzz.Campaign.report in
  Obs.Json.Obj
    [
      ("case", Obs.Json.Int c.Fuzz.Campaign.index);
      ("program", Obs.Json.String c.Fuzz.Campaign.program.Ir.Prog.name);
      ( "digest",
        Obs.Json.String (Option.value r.Fuzz.Oracle.reference ~default:"CRASH") );
      ("backends", Obs.Json.Int (List.length r.Fuzz.Oracle.results));
      ("skipped", Obs.Json.Int (List.length (Fuzz.Oracle.skips r)));
      ("ok", Obs.Json.Bool (Fuzz.Oracle.ok r));
    ]

(* One string per campaign that covers everything a row reports —
   equality of these is what "byte-identical at any --jobs" means. *)
let campaign_digest cases =
  String.concat "\n"
    (List.map (fun c -> Obs.Json.to_string (row_json c)) cases)

let timed_run ~jobs n =
  let t0 = Unix.gettimeofday () in
  let cases = Fuzz.Campaign.run ~jobs ~n ~seed () in
  (Unix.gettimeofday () -. t0, cases)

let section () =
  let n = budget () in
  Harness.heading
    (Printf.sprintf
       "Differential fuzz smoke: %d seeded programs through every executor" n);
  let cases = Fuzz.Campaign.run ~jobs:!Harness.jobs ~n ~seed () in
  let divergent = Fuzz.Campaign.divergent cases in
  Harness.emit "fuzz" row_json cases;
  Harness.row "%d cases, %d backend runs (%d skipped), %d divergences\n" n
    (Fuzz.Campaign.backend_runs cases)
    (Fuzz.Campaign.skipped_runs cases)
    (List.length divergent);
  Harness.gate
    (List.map
       (fun (c : Fuzz.Campaign.case) ->
         Printf.sprintf "fuzz smoke: case %d diverged\n%s\nrepro:\n%s"
           c.Fuzz.Campaign.index
           (Fuzz.Oracle.to_string c.Fuzz.Campaign.report)
           (Fuzz.Repro.to_string
              ~comment:
                (Printf.sprintf "bench fuzz smoke, seed %Ld case %d" seed
                   c.Fuzz.Campaign.index)
              c.Fuzz.Campaign.program))
       divergent);
  if Harness.writes_baseline () then begin
    let seq_s, seq_cases = timed_run ~jobs:1 n in
    let par_s, par_cases = timed_run ~jobs:parallel_jobs n in
    Harness.gate
      (Harness.check
         (String.equal (campaign_digest seq_cases) (campaign_digest par_cases))
         "fuzz smoke: parallel campaign (%d domains) differs from sequential!"
         parallel_jobs);
    Harness.write_baseline ~file:"BENCH_fuzz_parallel.json"
      ~schema:"fuzion/bench-fuzz-parallel/1"
      ~meta:
        [
          ( "note",
            Obs.Json.String
              "wall-clock measurement — unlike the other BENCH files this \
               does not diff clean across runs or hosts" );
          ("cases", Obs.Json.Int n);
          ("seed", Obs.Json.Int (Int64.to_int seed));
          ("available_cores", Obs.Json.Int (Support.Pool.default_domains ()));
          ("reports_identical", Obs.Json.Bool true);
        ]
      (fun (jobs, wall_s) ->
        Obs.Json.Obj
          [
            ("jobs", Obs.Json.Int jobs);
            ("wall_s", Obs.Json.Float wall_s);
            ( "speedup",
              Obs.Json.Float (if wall_s > 0.0 then seq_s /. wall_s else 0.0) );
          ])
      [ (1, seq_s); (parallel_jobs, par_s) ]
  end
