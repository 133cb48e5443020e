(* Workloads and their seeded request schedules.

   A workload is a fixed set of request cells; the seed decides the
   order in which each round sends them.  The set does not depend on
   the seed, so the deterministic metrics (modeled time, footprint,
   state and reference counts) and the work in a run are the same for
   every seed, while the request stream the daemon sees differs. *)

type workload = Plan_cold | Serve_warm | Native_cold

let workloads = [ Plan_cold; Serve_warm; Native_cold ]

let name = function
  | Plan_cold -> "plan-cold"
  | Serve_warm -> "serve-warm"
  | Native_cold -> "native-cold"

let of_name s = List.find_opt (fun w -> name w = s) workloads

(* Closed-loop callers: each waits for its reply before sending. *)
let clients = function Serve_warm -> 2 | Plan_cold | Native_cold -> 1

type cell = {
  bench : string;
  tile : int option;  (** [None]: the benchmark's default tile *)
  plan : Service.Api.plan_mode;
  machine : string;
  procs : int;
  native : bool;
}

let cell ?tile ?(plan = Service.Api.Greedy) ?(machine = "t3e") ?(procs = 1)
    ?(native = false) bench =
  { bench; tile; plan; machine; procs; native }

(* plan-cold: distinct (program, machine, procs) cells in one of
   search or ILP mode, so every request of a round misses the plan
   cache.  ep and sp, and ILP on tomcatv (4-14 s each at one job), are
   left out to keep rounds short enough to repeat. *)
let plan_cold_round =
  let s = Service.Api.Search and i = Service.Api.Ilp in
  [
    cell "frac" ~plan:s ~machine:"t3e" ~procs:1;
    cell "frac" ~plan:i ~machine:"sp2" ~procs:4;
    cell "tomcatv" ~plan:s ~machine:"paragon" ~procs:4;
    cell "adi3d" ~plan:i ~machine:"sp2" ~procs:16;
    cell "adi3d" ~plan:s ~machine:"paragon" ~procs:1;
  ]

(* native-cold: one (program, tile) pair per program, at tiles no
   other workload uses, so every request of a round compiles a new
   plan and builds a new runner. *)
let native_cold_round =
  let tile = function "ep" -> 512 | "adi3d" -> 6 | _ -> 12 in
  List.map
    (fun b -> cell b.Suite.name ~tile:(tile b.Suite.name) ~native:true)
    (Suite.all @ Suite.extras)

(* serve-warm: the six suite programs at their default tiles, greedy
   c2+f3; a round sends each four times, one of the four native. *)
let serve_programs = List.map (fun b -> b.Suite.name) Suite.all

let serve_warm_round =
  List.concat_map
    (fun p -> List.init 4 (fun k -> cell p ~native:(k = 0)))
    serve_programs

let round_cells = function
  | Plan_cold -> plan_cold_round
  | Native_cold -> native_cold_round
  | Serve_warm -> serve_warm_round

(* A run is a number of rounds; every round sends the same cells in
   its own seeded order.  Cold workloads give each round a fresh
   daemon, so each round is cold again; serve-warm's rounds are
   consecutive stretches on one warm daemon.  Metrics that vary with
   the machine's speed are medians over rounds. *)
let nominal_seconds = 20.0

let nominal_rounds = function Plan_cold -> 3 | Native_cold -> 4 | Serve_warm -> 4

let rounds w ~seconds =
  max 1
    (int_of_float
       (Float.round (float (nominal_rounds w) *. seconds /. nominal_seconds)))

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Support.Prng.next_int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

let make w ~seed ~rounds =
  let rng = Support.Prng.create (Int64.of_int seed) in
  Array.init rounds (fun _ ->
      let a = Array.of_list (round_cells w) in
      shuffle rng a;
      a)

(* Requests that fill the plan cache and the artifact store before a
   serve-warm run is timed: one native run per program compiles the
   plan and builds its runner. *)
let warmup = function
  | Serve_warm -> List.map (fun p -> cell p ~native:true) serve_programs
  | Plan_cold | Native_cold -> []

let request c =
  Service.Api.Run
    {
      source = Service.Api.Bench { name = c.bench; tile = c.tile };
      opts = { Service.Api.default_compile_opts with plan = c.plan };
      target = { Service.Api.machine = c.machine; procs = c.procs };
      spmd = false;
      native = c.native;
    }

let describe c =
  Printf.sprintf "%s%s %s %s/%d%s" c.bench
    (match c.tile with Some t -> Printf.sprintf "@%d" t | None -> "")
    (Service.Api.plan_mode_name c.plan)
    c.machine c.procs
    (if c.native then " native" else "")
