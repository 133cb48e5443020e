(** Structured observability for the compilation pipeline.

    The paper's argument rests on {e explaining} optimizer decisions —
    which statements fused, which arrays contracted and why, where the
    cache misses and messages went.  This library is the shared
    substrate: hierarchical {e pass spans} with wall-clock timings,
    typed {e counters} and {e events} recording every fusion attempt
    (with the Definition 5/6 reason that vetoed a rejected merge),
    contraction decisions, dependence-edge counts, interpreter and
    cache totals, and per-optimization communication savings.

    Instrumentation points ({!span}, {!count}, {!event}) are dynamically
    scoped {e per domain}: they report to the recorder installed by the
    innermost {!run} in the current domain, and compile to a single
    domain-local read when none is installed — the null-sink
    configuration adds no measurable overhead.  Recorders are plain
    mutable state and must not be shared between domains; parallel
    drivers record into one recorder per task and combine them with
    {!merge}.

    The library also hosts the two cross-layer value types of the
    driver/CLI API: {!Json} (report serialization, no external
    dependencies) and {!Diagnostic} (the error type of the result-based
    [Driver.compile] and of the [zapc] command line). *)

(** Minimal JSON values: enough to serialize compile reports and bench
    rows, and to carry the [zapd] wire protocol through {!Codec}. *)
module Json : sig
  type t =
    | Null
    | Bool of bool
    | Int of int
    | Float of float
    | String of string
    | List of t list
    | Obj of (string * t) list

  val to_string : t -> string
  (** Compact one-line rendering (valid JSON; floats keep full
      round-trip precision). *)

  val pp : Format.formatter -> t -> unit
  (** Indented multi-line rendering. *)

  val of_string : string -> (t, string) result
  (** Strict parser for the subset this module prints (numbers,
      strings with the common escapes, arrays, objects).  Never raises:
      malformed input is an [Error]. *)

  val member : string -> t -> t option
  (** Field lookup on [Obj]; [None] elsewhere. *)

  val find : t -> string list -> t option
  (** Nested field lookup along a path. *)

  (** Bidirectional codecs: one value describes a wire type and both
      encodes and decodes it.  Types are built from scalars, lists,
      objects ({!obj} … {!finish}) and tagged unions ({!variant}).
      The decoders built here never raise: every failure is an
      [Error] with a one-line message. *)
  module Codec : sig
    type json := t
    type 'a t = { enc : 'a -> json; dec : json -> ('a, string) result }

    val bool : bool t
    val string : string t

    val int : int t
    (** Also decodes integral floats inside the [int] range. *)

    val float : float t
    (** Also decodes integers. *)

    val json : json t
    (** Any value, passed through unchanged. *)

    val nullable : 'a t -> 'a option t
    (** [None] is [null]. *)

    val list : 'a t -> 'a list t

    val assoc : 'a t -> (string * 'a) list t
    (** An object read as its ordered (key, value) pairs. *)

    val enum : string -> ('a -> string) -> (string -> 'a option) -> 'a t
    (** [enum what name of_name]: a value spelled as a string; unknown
        spellings fail with ["unknown <what> \"<s>\""]. *)

    val fix : ('a t -> 'a t) -> 'a t
    (** A recursive codec: [f] receives the codec being defined and must
        not use it before returning. *)

    type ('o, 'k) obj
    (** The members of an object holding an ['o], in wire order; ['k] is
        what the constructor still needs. *)

    val obj : 'k -> ('o, 'k) obj
    (** [obj constructor] starts an object with no members.  The
        constructor takes the member values in wire order. *)

    val mem :
      ?default:'a ->
      ?omit:('o -> bool) ->
      string ->
      'a t ->
      ('o -> 'a) ->
      ('o, 'a -> 'k) obj ->
      ('o, 'k) obj
    (** [mem name c get] appends a member.  It is required unless
        [default] is given, which an absent member decodes to.  It is left
        out of the encoding of values for which [omit] holds. *)

    val opt :
      string ->
      'a t ->
      ('o -> 'a option) ->
      ('o, 'a option -> 'k) obj ->
      ('o, 'k) obj
    (** An optional member: left out when [None]; absent or [null]
        decodes to [None]. *)

    val finish : ('o, 'o) obj -> 'o t
    (** Decoding a non-object fails; unknown members are ignored. *)

    type ('k, 'a) case

    val case : 'k -> 'p t -> ('p -> 'a) -> ('a -> 'p option) -> ('k, 'a) case
    (** [case tag payload inject project]: the values [project] accepts
        are tagged [tag], with the members of their payload (which must
        encode to an object) after the tag. *)

    val variant : string -> 'k t -> ('k, 'a) case list -> 'a t
    (** [variant name tag cases]: a tagged union whose tag is the first
        member, [name], decoded with [tag] and compared with [=].
        Encoding a value that no case accepts raises
        [Invalid_argument]. *)
  end
end

(** Uniform compiler diagnostics: the error type of the result-based
    driver API and of all [zapc] command-line failures. *)
module Diagnostic : sig
  type severity = Error | Warning

  type t = {
    severity : severity;
    phase : string;  (** pipeline stage or CLI area: "parse", "check", "cli", ... *)
    loc : (string * int) option;  (** (file-or-input-name, 1-based line) *)
    message : string;
  }

  val error : ?loc:string * int -> phase:string -> string -> t
  val warning : ?loc:string * int -> phase:string -> string -> t

  val errorf :
    ?loc:string * int ->
    phase:string ->
    ('a, unit, string, t) format4 ->
    'a

  val to_string : t -> string
  (** ["zapc: check error: invalid program ..."]-style one-liner, with
      the location prefixed when present. *)

  val pp : Format.formatter -> t -> unit

  val codec : t Json.Codec.t
  (** [{"severity", "phase", "file"?, "line"?, "message"}]: [file] and
      [line] carry the location, which decodes only when both are
      present. *)

  val to_json : t -> Json.t
  (** [codec.enc]. *)
end

exception Error of Diagnostic.t
(** Raised by the [_exn] convenience wrappers of result-based APIs. *)

(** {1 Events and counters} *)

(** Why a fusion merge attempt was rejected: the Definition 5 legality
    conditions, the Definition 6 contractibility precondition of
    FUSION-FOR-CONTRACTION, or an external veto ([may_fuse], the
    communication-integration hook). *)
type fusion_reason =
  | Not_contractible  (** Def. 6: candidate array not contractible within the grown cluster set *)
  | Region_mismatch  (** Def. 5(i): statements iterate different regions *)
  | Nonnull_flow  (** Def. 5(ii): a loop-carried flow dependence would be internalized *)
  | No_loop_structure  (** Def. 5(iv): FIND-LOOP-STRUCTURE returned NOSOLUTION *)
  | Cycle  (** merged cluster graph would be cyclic *)
  | External_veto  (** the [may_fuse] hook refused (favor-communication mode) *)

val fusion_reason_name : fusion_reason -> string
(** Stable kebab-case name, used as counter suffix and in JSON. *)

val all_fusion_reasons : fusion_reason list

type event =
  | Fusion_attempt of { array : string option; clusters : int }
      (** a merge of [clusters] clusters was attempted, driven by
          [array] ([None] for the greedy pairwise sweep) *)
  | Fusion_accept of { array : string option; clusters : int }
  | Fusion_reject of { array : string option; reason : fusion_reason }
  | Contraction_candidate of { array : string }
  | Contraction_perform of { array : string; shape : string }
      (** [shape] is ["scalar"] or ["dims:0110"]-style for partial
          contraction *)
  | Reduction_absorbed of { reduce : int; cluster : int }
  | Note of { name : string; value : string }  (** free-form marker *)

val event_counter : event -> string option
(** The counter each event bumps (e.g. [Fusion_reject] with
    [Nonnull_flow] bumps ["fusion.rejected.nonnull-flow"]); [None] for
    [Note]. *)

(** {1 Spans and reports} *)

type span = {
  span_name : string;
  elapsed_ns : float;
  children : span list;  (** in execution order *)
}

type report = {
  spans : span list;  (** top-level spans, in execution order *)
  counters : (string * int) list;  (** sorted by name *)
  totals : (string * float) list;  (** float-valued counters, sorted *)
  events : event list;  (** in emission order *)
}

(** {1 Sinks and recorders} *)

type sink
(** Receives streamed notifications as instrumentation fires (the
    recorder accumulates the report regardless of sink). *)

val null_sink : sink
(** Accumulate only; stream nothing. *)

val text_sink : Format.formatter -> sink
(** Stream an indented span tree with timings, and one line per event
    — the [--trace] rendering. *)

type t
(** A recorder: accumulates spans, counters and events. *)

val create : ?sink:sink -> unit -> t
(** Fresh recorder.  The fusion and contraction counters are pre-seeded
    to 0 so reports have a stable key set. *)

val run : t -> (unit -> 'a) -> 'a
(** [run t f] installs [t] as the current recorder for the dynamic
    extent of [f] (restored on exceptions; nested [run]s shadow). *)

val report : t -> report
(** Snapshot of everything recorded so far.  Open spans are excluded. *)

val merge : t -> report -> unit
(** [merge t r] folds a finished child recorder's report into [t]:
    counters and totals add; [r]'s top-level spans and events append
    after everything already in [t].  Parallel sweep drivers give each
    task its own recorder (recorders are domain-local, see {!run}) and
    merge the reports back in task order, which makes the combined
    report deterministic regardless of domain scheduling. *)

val active : unit -> t option
(** The recorder installed in the {e current domain}, if any ([run]
    installs per-domain: a recorder installed by the caller is not
    visible inside [Support.Pool] workers). *)

(** {1 Instrumentation points}

    All are no-ops (one [ref] read) when no recorder is installed. *)

val enabled : unit -> bool
(** [true] iff a recorder is installed — guard allocation-heavy
    event construction in hot paths with this. *)

val now_ns : unit -> float
(** The monotonic clock (CLOCK_MONOTONIC) in nanoseconds — the time
    base of every {!span}.  Monotone non-decreasing across calls:
    immune to NTP steps, so span durations are never negative.  The
    epoch is unspecified; only differences are meaningful. *)

val span : string -> (unit -> 'a) -> 'a
(** Time [f] as a child of the innermost open span. *)

val count : string -> int -> unit
(** Add to a named integer counter. *)

val total : string -> float -> unit
(** Add to a named float accumulator (ns saved, bytes, ...). *)

val event : event -> unit
(** Record an event (and bump its counter, see {!event_counter}). *)

(** {1 Rendering} *)

val report_to_json : report -> Json.t
(** Stable schema: [{"spans": [{"name", "ns", "children"}...],
    "counters": {...}, "totals": {...}}]. *)

val pp_spans : Format.formatter -> span list -> unit
val pp_report : Format.formatter -> report -> unit
