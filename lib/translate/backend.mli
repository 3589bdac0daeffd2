(** Translation backends: the accelerator targets microcode is emitted
    for.

    The translator's DFA — register classification, Table 3 rule
    selection, legality checks, iteration verification — is target
    independent: it recognizes {e what} a scalar loop computes. What
    differs between accelerator generations is {e how} the recognized
    loop is re-encoded, and that difference is captured here as a
    first-class module consulted only at {!Translator.finish} time:

    - the {e fixed-width} target (the paper's Neon-like accelerator)
      picks the widest lane count dividing the trip count and steps the
      induction variable by it — a non-dividing trip count aborts;
    - the {e vector-length-agnostic} target always runs at full
      hardware width under a [whilelt] governing predicate, so any
      positive trip count translates and the final iteration may be
      partial;
    - the {e RVV-style} target stripmines: a [vsetvl] request-grant pair
      sets the vector-length CSR each iteration, the induction variable
      advances by the granted length, and a non-dividing trip count
      simply runs its final iteration under a shortened grant — no
      masks on the main path, no scalar epilogue. It is also the only
      backend that grades its own width: {!S.register_group} picks an
      LMUL register-group factor from the region's vector-register
      pressure, multiplying the effective datapath width when few
      vector registers are live.

    The last two emit the same op set ({!Liquid_visa.Governed}) and
    differ only in its governor: the predicate ([Pred]) or the grant
    ([Vl]). Both are one implementation parameterized by the governor.

    Fixed-geometry permutations are where the encodings diverge most:
    the fixed-width target matches the observed offset stream against
    the permutation CAM and emits a register permute ({!Vinsn.Vperm}),
    while the VLA and RVV targets — whose runtime width need not divide
    (or even reach) the pattern's period — lower the same shapes to
    table-lookup memory ops over an index vector materialized at
    runtime ({!Liquid_visa.Governed.Tbl}, under the predicate or the
    [vl] grant).
    {!Abort.Unportable_permutation} remains only for genuinely
    data-dependent shuffles whose offset stream cannot be proven
    loop-invariant. *)

open Liquid_isa
open Liquid_visa

type kind = Ucode.kind = Fixed | Vla | Rvv

type perm_lowering =
  | Perm_native  (** CAM match, emit a register permute ({!Vinsn.Vperm}). *)
  | Perm_table
      (** Lower to table-lookup memory ops with a runtime-built index
          vector ({!Liquid_visa.Governed.Tbl}),
          via the backend's {!S.perm_index_build} / {!S.perm_gather} /
          {!S.perm_scatter} hooks. *)
  | Perm_abort
      (** No length-agnostic encoding: abort the region with
          {!Abort.Unportable_permutation}. Retained for hypothetical
          targets without a gather unit; no shipped backend uses it. *)

(** A backend supplies the width policy and the emission points where
    the three targets' microcode differs. A fourth backend is one new
    implementation of this signature plus registry entries below — see
    the "writing a fourth backend" checklist in docs/ARCHITECTURE.md. *)
module type S = sig
  val kind : kind

  val name : string
  (** Stable CLI / report name ("fixed", "vla", "rvv"). *)

  val effective_width : lanes:int -> trips:int -> (int, Abort.t) result
  (** Base lane count to translate for, or the abort to raise. *)

  val register_group : lanes:int -> pressure:int -> int
  (** Register-group (LMUL) factor for a region whose live vector values
      number [pressure] at base width [lanes]: the effective translation
      width becomes [lanes * register_group]. Must return a factor that
      keeps [lanes * m] within the machine's maximum vector length and
      [pressure * m] within the vector file. The fixed-width and VLA
      backends have no grouping and always return 1. *)

  val permutation : perm_lowering
  (** How a region's fixed-geometry permutations are encoded — see
      {!perm_lowering}. *)

  val loop_header : induction:Reg.t -> bound:int -> Ucode.uop list
  (** Uops inserted once, immediately before the first loop-body uop
      (the back-edge target): the VLA backend computes the initial
      governing predicate here, the RVV backend its initial [vl]
      grant. *)

  val body_vector : Vinsn.exec -> Ucode.uop
  (** Encoding of a loop-body vector operation (the VLA backend wraps it
      in the governing predicate, the RVV backend in the [vl] grant). *)

  val induction_step : dst:Reg.t -> width:int -> Ucode.uop
  (** Encoding of the induction-variable advance ([add #width] wide,
      [incvl], or [add dst, dst, vl]). *)

  val trip_compare : insn:Insn.exec -> induction:Reg.t -> bound:int -> Ucode.uop
  (** Encoding of the loop's trip-count compare. [insn] is the original
      scalar compare; the VLA backend replaces it with a [whilelt] and
      the RVV backend with a [vsetvl], each of which both renews its
      remainder mechanism (predicate resp. grant) and sets the flags the
      back-edge branch reads. *)

  val perm_index_build : pattern:Perm.t -> Ucode.uop
  (** Region-prologue uop that materializes the index vector for one
      recovered permutation pattern (emitted once per distinct pattern,
      before {!loop_header}). Only consulted when {!permutation} is
      {!Perm_table}; [Perm_native] backends may raise. *)

  val perm_gather :
    esize:Esize.t ->
    signed:bool ->
    dst:Vreg.t ->
    base:int Insn.base ->
    counter:Reg.t ->
    pattern:Perm.t ->
    Ucode.uop
  (** Table-lookup gather replacing a recovered load-side permutation:
      lane [j] loads element [Perm.src_index pattern (counter + j)] of
      the array at [base]. Only consulted under {!Perm_table}. *)

  val perm_scatter :
    esize:Esize.t ->
    src:Vreg.t ->
    base:int Insn.base ->
    counter:Reg.t ->
    pattern:Perm.t ->
    Ucode.uop
  (** Table-lookup scatter replacing a recovered store-side permutation —
      the store dual of {!perm_gather}. Only consulted under
      {!Perm_table}. *)
end

type t = (module S)

val fixed : t
(** The paper's fixed-width (Neon-like) target: the hardware width must
    divide the trip count; plain vector ops, no governance. *)

val vla : t
(** The vector-length-agnostic (SVE-style) target: [whilelt]-predicated
    loops, any trip count, permutations as predicated table lookups. *)

val rvv : t
(** The vsetvl/LMUL (RVV-style) target: grant-governed stripmined
    loops, any trip count, microcode emitted at the register-grouped
    width. *)

val all : t list
(** All three backends, for sweeps. *)

val kind_of : t -> kind
val name_of : t -> string
(** The backend's [S.name] — the spelling accepted by {!of_string} and
    the CLI's [--backend]. *)

val of_string : string -> t option
(** Parse a CLI name ("fixed", "vla" or "rvv"). *)

val pp : Format.formatter -> t -> unit
