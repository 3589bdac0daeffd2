(** The post-retirement dynamic translator (paper §4).

    One translator session observes the retired instruction stream of a
    single execution of an outlined region — from the instruction after
    the region branch-and-link up to and including the region's return —
    and reconstructs width-appropriate SIMD microcode, or aborts.

    The session mirrors the hardware structure of the paper's Figure 5:

    - {e partial decode / register state}: every scalar register carries a
      class (scalar, induction candidate, induction, vector) plus the
      element size and "previous values" lineage the paper keeps per
      register (§4.1);
    - {e opcode generation}: Table 3's rules map each retired instruction
      to zero, one or two microcode slots;
    - {e legality checks}: instructions with no applicable rule abort the
      session; the scalar region remains executable, so an abort only
      costs performance;
    - {e microcode buffer}: slots support in-place replacement (saturation
      idioms) and invalidation with compaction (offset-array loads removed
      once a permutation is recognized) — the paper's alignment network.

    Because offsets, constant vectors and permutations can only be
    identified after one full hardware vector's worth of scalar
    iterations has retired, the session works in two phases: the first
    loop iteration {e builds} the microcode skeleton, subsequent
    iterations {e verify} that the static pattern repeats and accumulate
    the per-iteration values; [finish] resolves permutations against the
    CAM, folds periodic constant vectors, and fixes the induction step.

    Width adaptation is the {!Backend}'s policy. The fixed-width target
    translates for the widest lane count [w] with [2 <= w <= lanes] that
    divides the loop trip count, so a binary compiled for the maximum
    vectorizable width still maps onto narrower accelerators, and
    short-vector loops map onto wider hardware at reduced width. The
    vector-length-agnostic target always translates at the full lane
    count and lets the governing predicate absorb the remainder. *)

type config = {
  lanes : int;  (** accelerator lane count (2, 4, 8 or 16) *)
  max_uops : int;  (** microcode buffer capacity; the paper uses 64 *)
  backend : Backend.t;  (** the accelerator target microcode is emitted for *)
}

val default_config : ?backend:Backend.t -> lanes:int -> unit -> config
(** [max_uops = 64]; [backend] defaults to {!Backend.fixed}. *)

type result = Translated of Ucode.t | Aborted of Abort.t

type perm_tally = { seen : int; recovered : int; aborted : int }
(** Per-session permutation accounting: how many permutation
    placeholders [finish] encountered, and how many it rewrote to a
    native permute or table lookup ([recovered]) versus failed
    ([aborted]). The resolve pass stops at the first failure, so
    [recovered + aborted = seen] always holds. *)

type t
(** A translation session: one in-flight attempt to recover SIMD
    microcode from the retired stream of one region execution. *)

val create : config -> t
(** Fresh session in the Build phase, ready for the region's first
    retired instruction. *)

val no_value : int
(** The [value] passed to {!observe} for an instruction that wrote no
    destination register ([min_int], outside the 32-bit word range;
    [Sem.no_value] is the same sentinel). *)

val observe : t -> pc:int -> insn:Liquid_isa.Insn.exec -> value:int -> unit
(** Process one retired instruction: its pc, the instruction, and the
    value it wrote to its destination register ({!no_value} for none).
    This is the retirement tap every caller uses; it allocates nothing
    once the session has left its first loop iteration. After an abort
    condition the session latches the failure and ignores further
    events. *)

val feed : t -> Event.t -> unit
(** [observe] on a boxed {!Event.t}: [feed t (Event.make ~pc ?value insn)]
    is [observe t ~pc ~insn ~value] with [None] mapped to {!no_value}. *)

val abort_external : t -> unit
(** Asynchronous abort: context switch or interrupt (paper §4.1). *)

val inject : t -> Abort.t -> unit
(** Fault injection: force the session to abort with the given reason
    at whatever DFA state it has reached, exactly as if a legality
    check had failed there. First failure wins; a no-op once the
    session has already aborted. *)

val finish : t -> result
(** Close the session after the region's return has been fed. *)

val perm_tally : t -> perm_tally
(** Permutation accounting for this session; populated by [finish]
    (all-zero before it runs). *)

val observed : t -> int
(** Dynamic instructions consumed so far. *)

val static_insns : t -> int
(** Static instructions mapped so far (the first iteration plus the
    prologue). Translation {e work} is proportional to this: later
    iterations only verify and stream values, keeping pace with
    retirement (paper §5: translation of tens of cycles per instruction
    hides within the 300-cycle call gaps). *)
