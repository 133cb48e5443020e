(** Disjoint-set union (union-find) over integers [0 .. n-1].

    Set identity is the minimum element (the paper's rule that merged
    clusters are assigned to the [P_k] with smallest [k]).
    [Core.Partition] keeps the same rule with an immutable
    representative vector and precomputed membership; the core tests
    check that membership against {!groups} after random merges. *)

type t

val create : int -> t
(** [create n] is the discrete partition of [0 .. n-1]. *)

val find : t -> int -> int
(** Canonical representative: the {e minimum} element of the set. *)

val union : t -> int -> int -> unit
(** Merge the two sets (no-op when already merged). *)

val same : t -> int -> int -> bool

val groups : t -> int list list
(** All sets, each sorted ascending, ordered by representative. *)

val copy : t -> t
(** Independent copy; unions on the copy do not affect the original. *)

val n_sets : t -> int
