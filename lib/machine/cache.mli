(** Set-associative cache model with true-LRU replacement.

    This is a timing/behaviour model only: it tracks which lines are
    resident, not their contents (data always comes from {!Memory}). The
    default geometry matches the ARM-926EJ-S used in the paper's
    evaluation: 16 KiB, 64-way, 32-byte lines.

    An access costs O(1) whatever the associativity (expected, with
    growth amortized): a hash index finds a line's way and a per-set
    recency ring yields the LRU victim, so no access scans the ways of
    its set. Memory grows with the lines actually resident (doubling
    from a few slots up to the capacity in lines), not with the
    geometry, so creating a cache is cheap. *)

type config = {
  size_bytes : int;  (** total capacity *)
  line_bytes : int;  (** line size; must be a power of two *)
  assoc : int;  (** ways per set; must be positive *)
}

val arm926_config : config
(** 16 KiB / 64-way / 32-byte lines, as in the ARM-926EJ-S. *)

type t

val create : config -> t
(** Raises [Invalid_argument] unless the line size is a power of two,
    the associativity is positive, and the capacity divides into a
    power-of-two number (at least one) of sets. *)

val config : t -> config

type outcome = Hit | Miss

val access : t -> int -> outcome
(** [access c addr] touches the line containing [addr], allocating it
    (and evicting the LRU way) on a miss. Both reads and writes allocate,
    modeling a write-allocate cache. *)

val credit_hits : t -> int -> unit
(** [credit_hits c n] accounts [n] additional hits without running the
    lookup. Used by the translation-block engine: a straight-line run of
    instruction fetches touches each line once through {!access} and
    credits the remaining same-line fetches, which are hits by
    construction (no other access of the set can intervene inside a
    block). State and LRU order are untouched, so this is
    counter-equivalent to performing the accesses. *)

val line_bytes : t -> int

val set_of : t -> int -> int
(** [set_of c addr] is the set the line containing [addr] maps to, in
    [0 .. n_sets - 1] — the one placement rule the residency reasoning
    of callers must share with {!access}. *)

val lines_spanned : t -> addr:int -> bytes:int -> int
(** Number of distinct cache lines covered by the byte range. *)

val hits : t -> int
val misses : t -> int

type counters = { c_hits : int; c_misses : int }

val counters : t -> counters
(** Immutable snapshot of the cache's own hit/miss tally — the single
    source the run-level {!Stats} mirror is derived from. *)

val reset_stats : t -> unit

val flush : t -> unit
(** Invalidate every line (e.g., on context switch in ablations). *)
