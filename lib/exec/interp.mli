(** Instrumented interpreter for the scalar IR.

    Executes a {!Sir.Code.program} exactly as the generated loop nests
    prescribe, while counting array loads/stores and floating-point
    operations and (optionally) emitting the full memory-reference
    trace.  The trace feeds the cache simulator: contracted arrays have
    become scalars, so their former references produce {e no} memory
    traffic — precisely the effect the paper measures.

    Array elements are modelled as 8-byte doubles laid out row-major;
    each allocation gets a disjoint base address.  Out-of-bounds
    subscripts raise — the interpreter doubles as a scalarizer
    validator.

    {b Lower, then run.}  [run] first lowers the program once: every
    scalar name (declared scalars, contraction temporaries, loop
    variables) becomes a slot in a [float array], and every array
    reference becomes a rank-specialised closure over the array's
    data, bounds and strides that computes the flat index, checking
    each dimension in order.  Expressions become [unit -> float]
    closures and statements [unit -> unit] closures; the trace hook
    is compiled in only when [trace] is given.  The second stage calls
    the closures.

    {b Deferred errors.}  Lowering never raises.  A reference that
    cannot succeed (an undefined scalar, a contracted or undeclared
    array, a rank mismatch) lowers to a closure that raises the same
    [Runtime_error] when it executes, in the same order as a direct
    walk of the tree: a [Load] looks up its array, then its subscripts
    left to right, then checks the rank, then the bounds of each
    dimension; a [Store] first evaluates its right-hand side.  Code has
    no branches and loops have constant bounds, so whether a scalar is
    defined is decided statically, and a reference inside a loop that
    runs zero times never raises. *)

type counters = {
  mutable loads : int;  (** array element reads *)
  mutable stores : int;  (** array element writes *)
  mutable flops : int;  (** arithmetic operations *)
  mutable iters : int;  (** innermost statement executions *)
}

type result

exception Runtime_error of string

val run :
  ?trace:(addr:int -> write:bool -> unit) ->
  Sir.Code.program ->
  result
(** Execute the program on zero-initialized arrays.  [trace] receives
    the byte address of every array element access, in execution
    order. *)

val counters : result -> counters

val get_scalar : result -> string -> float
(** Final value of a scalar (including contraction temporaries).
    Raises [Runtime_error] if undefined. *)

val get_array : result -> string -> float array
(** Final contents of an allocated array, row-major.  Raises
    [Runtime_error] if the array was contracted away or undeclared. *)

val read_point : result -> string -> int array -> float
(** One element by its original (bounds-relative) index. *)

(** The live-out digest shared by every executor in the repo (this
    interpreter, {!Refinterp}, the SPMD backend): mixing the same
    values in the same order yields the same checksum. *)
module Digest : sig
  type t

  val empty : t
  val mix : t -> float -> t
  val to_hex : t -> string
end

val checksum : result -> string
(** Order-independent-of-nothing digest of all live-out values — two
    observationally equivalent runs produce identical checksums. *)

val footprint_bytes : Sir.Code.program -> int
(** Bytes of array storage the program allocates (8 per element). *)
