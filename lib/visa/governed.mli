(** Governed accelerator instructions: the vector-length-agnostic
    (SVE-style) and stripmined (RVV-style) translation targets as one
    op set.

    Where the fixed-width target ({!Vinsn}) encodes the lane count into
    the loop structure — the induction step advances by the width, so
    the trip count must divide evenly — these targets never name a width
    at all. A {!Set} compares the induction counter against the trip
    count and records how many lanes remain, at most the hardware's;
    every body operation runs only that many lanes (inactive destination
    lanes are zeroed, loads and stores touch only active elements); and
    {!Step} advances the counter. A trip count that is not a multiple of
    the lane width therefore runs one shortened final iteration instead
    of a scalar cleanup loop.

    The two targets differ only in where they keep the active-lane
    count, its {!governor}:
    - under {!Pred} it is the prefix predicate [p0], built by
      [whilelt], and {!Step} advances by the hardware vector length
      ([incvl]) (Stephens et al., {e The ARM Scalable Vector
      Extension});
    - under {!Vl} it is the vector-length grant, requested by [vsetvl],
      and {!Step} advances by the grant, landing the counter exactly on
      the bound (the stripmining idiom the NEON-to-RVV mapping study in
      PAPERS.md catalogues).

    Because [whilelt] only ever produces prefix predicates (lanes
    [0..k-1] active), a predicate and a grant are both represented
    throughout the simulator as an active-lane count [k], with
    [0 <= k <=] the hardware lane count. The step is the only semantics
    that depends on the governor; the printer spells each op in its
    governor's assembly. Data symbols are absolute addresses (the
    executable form of {!Vinsn.t}). *)

open Liquid_isa

(** Where the active-lane count lives. *)
type governor =
  | Pred  (** the prefix predicate [p0] *)
  | Vl  (** the vector-length grant [vl] *)

type t =
  | Set of { gov : governor; counter : Reg.t; bound : int }
      (** [count := min(max(bound - counter, 0), lanes)]; also sets the
          scalar condition flags from the signed comparison of
          [counter] with [bound], so the loop back-edge remains an
          ordinary [b.lt]. *)
  | Op of { gov : governor; v : int Vinsn.t }
      (** [v] executed over the first [count] lanes with zeroing
          semantics: inactive destination lanes are cleared, inactive
          load/store lanes touch no memory, and reductions fold active
          lanes only. A full count runs the unmasked fixed-width
          semantics verbatim. *)
  | Step of { gov : governor; dst : Reg.t }
      (** [dst := dst + lanes] under {!Pred}, [dst := dst + count] under
          {!Vl}. *)
  | Tblidx of { gov : governor; pattern : Perm.t }
      (** Materialize the table-lookup index vector for [pattern] from
          the hardware's actual vector length — the runtime index build
          that makes a fixed-geometry permutation length-agnostic (the
          SVE [index]/[tbl] and RVV [vid]/[vrgather] preamble idiom).
          Placed once in the region prologue, before the loop header, so
          the build cost is paid per region call rather than per
          iteration. Purely register-state setup: no memory traffic, no
          flags. *)
  | Tbl of {
      gov : governor;
      esize : Esize.t;
      signed : bool;
      dst : Vreg.t;
      base : int Insn.base;
      counter : Reg.t;
      pattern : Perm.t;
    }
      (** Table-lookup gather: for each active lane [j], load element
          [Perm.src_index pattern (counter + j)] of the array at [base]
          into [dst.(j)], zeroing inactive lanes. Because the lookup
          indexes the {e memory} element stream rather than the lanes of
          one register, it reproduces the scalar loop's permuted access
          order exactly — at any hardware width, including widths
          smaller than the pattern's period and shortened final
          iterations. *)
  | Tblst of {
      gov : governor;
      esize : Esize.t;
      src : Vreg.t;
      base : int Insn.base;
      counter : Reg.t;
      pattern : Perm.t;
    }
      (** Table-lookup scatter — the store-side dual of {!Tbl}: for each
          active lane [j], store [src.(j)] to element
          [Perm.src_index pattern (counter + j)] of the array at [base].
          [pattern] is the {e store-side} pattern as observed in the
          scalar offset stream, so the written addresses match the
          scalar loop's verbatim. *)

val index : governor -> int
(** Slot of the governor's count in a per-governor array: [0] for
    {!Pred}, [1] for {!Vl}. *)

val reads_count : t -> bool
(** [true] for the ops whose execution the active-lane count governs
    ({!Op}, {!Tbl}, {!Tblst}) — the dispatches the simulator tallies as
    predicated. *)

val is_vector : t -> bool
(** [true] for {!Op} and the table-lookup family ({!Tblidx}, {!Tbl},
    {!Tblst}) — the datapath operations; {!Set} and {!Step} are
    loop-control overhead and account as scalar work. *)

val defs_vector : t -> Vreg.t list
(** Vector registers written, delegating to the wrapped instruction;
    {!Tbl} writes its gather destination. *)

val uses_vector : t -> Vreg.t list
(** Vector registers read, delegating to the wrapped instruction;
    {!Tblst} reads the register it scatters. *)

val pp : Format.formatter -> t -> unit
(** Prints the governor's assembly with resolved addresses: under
    {!Pred} [whilelt p0, r0, #15] / [p0/z vadd v1, v1, v2] /
    [incvl r0] / [tblidx], under {!Vl} [vsetvl vl, r0, #15] /
    [vl/vadd v1, v1, v2] / [add r0, r0, vl] / [vidx]. *)
