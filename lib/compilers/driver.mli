(** End-to-end optimization driver.

    Implements the incremental optimization strategies of the paper's
    evaluation (§5.4):

    - [Baseline] — no fusion or contraction;
    - [F1] — fusion to enable contraction of compiler arrays, without
      performing the contraction;
    - [C1] — [F1] plus the contraction of compiler arrays;
    - [F2] — [C1] plus fusion to enable contraction of user arrays,
      without contracting them;
    - [F3] — [C1] plus fusion for locality;
    - [C2] — [C1] plus contraction of user arrays;
    - [C2F3] — [C2] plus fusion for locality;
    - [C2F4] — [C2F3] plus all legal fusion (greedy pairwise);
    - [C2P] — {e extension}: [C2F3] with sequential (relaxed-flow)
      fusion and contraction to lower-dimensional arrays, the future
      work the paper motivates with SP (§5.2).  Not part of the paper's
      level ladder; used by the ablation benches. *)

type level = Baseline | F1 | C1 | F2 | F3 | C2 | C2F3 | C2F4 | C2P

val all_levels : level list
(** The paper's eight strategies, in the order of Figures 9–11
    (without [C2P]). *)

val level_name : level -> string
(** The paper's name: ["baseline"], ["f1"], ..., ["c2+f4"], ["c2+p"]. *)

val level_of_name : string -> level option
(** Accepts both the paper spellings (["c2+f3"], ["c2+f4"], ["c2+p"])
    and the internal ones (["c2f3"], ...), case-insensitively:
    [level_of_name (level_name l) = Some l] for every level. *)

type compiled = {
  level : level;
  prog : Ir.Prog.t;  (** the input array program *)
  plan : Sir.Scalarize.plan;
  code : Sir.Code.program;  (** generated scalar program *)
  contracted : (string * Core.Contraction.shape) list;
      (** every contraction performed, with its shape *)
}

type opts = {
  level : level;
  may_fuse : (block:int -> int list -> bool) option;
      (** per-block merge veto (communication integration, §5.5) *)
  reduction_fusion : bool;
      (** default [true]; disabling is the ablation under which arrays
          consumed by reductions can never contract *)
  on_contraction :
    (candidates:string list -> (string * Core.Contraction.shape) list -> unit)
    option;
      (** default [None]: each block's contraction decision emits its
          [Obs] events.  [Some f] decides silently and hands [f] the
          block's candidates and result instead, so a caller compiling
          several alternatives can report only the one it keeps (see
          [Core.Contraction.observe]). *)
}
(** The single options record of the driver's canonical entry points.
    Every knob the pipeline will ever grow lands here, so the
    signatures of {!compile_opts} / {!compile_custom_opts} /
    {!compile_exn_opts} never change arity again; build one with
    {!opts} (or [{ default_opts with ... }]) to stay source-compatible
    with future fields. *)

val default_opts : opts
(** [{ level = C2F3; may_fuse = None; reduction_fusion = true;
    on_contraction = None }]. *)

val opts :
  ?may_fuse:(block:int -> int list -> bool) ->
  ?reduction_fusion:bool ->
  level ->
  opts
(** [opts level] is {!default_opts} at [level], with any overrides. *)

val compile_opts : opts -> Ir.Prog.t -> (compiled, Obs.Diagnostic.t) result
(** Optimize and scalarize — the canonical entry point.

    Returns [Error d] (phase ["check"]) if the program fails
    [Ir.Prog.validate]; never raises on user input.  When an [Obs]
    recorder is installed the compilation is traced: pass spans
    ([check], [plan] with per-block [dependence] / [fusion] /
    [reduction-fusion] / [contraction], [scalarize]) plus the fusion
    and contraction counters and events. *)

val compile_custom_opts :
  opts ->
  partition:
    (block:int ->
    compiler:string list ->
    user:string list ->
    Core.Asdg.t ->
    Core.Partition.t) ->
  Ir.Prog.t ->
  (compiled, Obs.Diagnostic.t) result
(** The pipeline of {!compile_opts} with the fixed level ladder
    replaced by a caller-supplied fusion strategy: for each basic
    block the [partition] callback receives the block index, the
    contraction candidates split by array kind, and the freshly built
    ASDG, and returns the fusion partition to compile (it must be a
    valid Definition 5 partition of that ASDG — e.g. one grown through
    [Core.Partition.check_merge]).  Everything downstream — reduction
    absorption, the reduce-read candidate filter, the contraction
    decision, scalarization — is the standard machinery, so results
    are directly comparable with the built-in levels.  [opts.level]
    only labels the result for reporting ([opts.may_fuse] is unused:
    the partitioner owns every fusion decision).  This is the entry
    point of the search-based planner (lib/plan). *)

val compile_exn_opts : opts -> Ir.Prog.t -> compiled
(** Raising wrapper over {!compile_opts} for callers that have already
    validated their input.  Raises [Obs.Error] with the diagnostic. *)

val contracted_counts : compiled -> int * int
(** [(compiler, user)] arrays eliminated (Figure 7's categories). *)

val remaining_arrays : compiled -> int
(** Static arrays still allocated after contraction. *)
