(** Concise constructors for hand-writing programs against the IR.

    Scalar helpers build {!Liquid_prog.Program.item}s for glue code;
    vector helpers build {!Liquid_visa.Vinsn.asm}s for loop bodies. *)

open Liquid_isa
open Liquid_visa
open Liquid_prog

val r : int -> Reg.t
(** Scalar register [ri]. *)

val v : int -> Vreg.t
(** Vector register [vi]. *)

(** {1 Scalar glue} *)

val label : string -> Program.item
(** A branch-target label. *)

val mov : Reg.t -> int -> Program.item
(** [mov rd #imm] — load an immediate. *)

val movr : Reg.t -> Reg.t -> Program.item
(** [mov rd rs] — register copy. *)

val movc : Cond.t -> Reg.t -> int -> Program.item
(** Conditional immediate move, e.g. [movlt rd #imm] — half of the
    saturation idiom (Table 1 category 5). *)

val dp : Opcode.t -> Reg.t -> Reg.t -> Insn.operand -> Program.item
(** Three-operand data-processing: [op rd rs operand]. *)

val addi : Reg.t -> Reg.t -> int -> Program.item
(** [add rd rs #imm]. *)

val ld : ?esize:Esize.t -> ?signed:bool -> Reg.t -> string -> Insn.operand -> Program.item
(** Element-indexed load: the index operand is scaled by the element
    size automatically. *)

val st : ?esize:Esize.t -> Reg.t -> string -> Insn.operand -> Program.item
(** Element-indexed store; the index operand is scaled like {!ld}. *)

val cmp : Reg.t -> Insn.operand -> Program.item
(** Compare, setting the condition flags. *)

val b : ?cond:Cond.t -> string -> Program.item
(** (Conditional) branch to a label. *)

val bl : string -> Program.item
(** Ordinary branch-and-link (function call). *)

val bl_region : string -> Program.item
(** The region-marking branch-and-link: the call form the dynamic
    translator watches for (the paper's outlined-function hint). *)

val ret : Program.item
(** Return through the link register. *)

val halt : Program.item
(** Stop the machine; every program ends with one. *)

val ri : Reg.t -> Insn.operand
(** A register operand. *)

val i : int -> Insn.operand
(** An immediate operand. *)

val counted_loop :
  name:string -> count:int -> ind:Reg.t -> Program.item list -> Program.item list
(** [counted_loop ~name ~count ~ind body] wraps [body] in
    [mov ind,#0; L: body; add ind,ind,#1; cmp ind,#count; blt L]. *)

(** {1 Vector loop bodies} *)

val vld : ?esize:Esize.t -> ?signed:bool -> Vreg.t -> string -> Vinsn.asm
(** [vld dst arr] — load one vector of consecutive elements of [arr] at
    the loop induction index. *)

val vst : ?esize:Esize.t -> Vreg.t -> string -> Vinsn.asm
(** [vst src arr] — store one vector to [arr] at the induction index. *)

val vdp : Opcode.t -> Vreg.t -> Vreg.t -> Vinsn.vsrc -> Vinsn.asm
(** Generic lane-wise data-processing: [op dst src1 vsrc]. The named
    wrappers below fix the opcode. *)

val vadd : Vreg.t -> Vreg.t -> Vinsn.vsrc -> Vinsn.asm
(** Lane-wise addition. *)

val vsub : Vreg.t -> Vreg.t -> Vinsn.vsrc -> Vinsn.asm
(** Lane-wise subtraction. *)

val vmul : Vreg.t -> Vreg.t -> Vinsn.vsrc -> Vinsn.asm
(** Lane-wise multiplication. *)

val vand : Vreg.t -> Vreg.t -> Vinsn.vsrc -> Vinsn.asm
(** Lane-wise bitwise and (pairs with {!vmask} for merges). *)

val vorr : Vreg.t -> Vreg.t -> Vinsn.vsrc -> Vinsn.asm
(** Lane-wise bitwise or. *)

val vmin : Vreg.t -> Vreg.t -> Vinsn.vsrc -> Vinsn.asm
(** Lane-wise signed minimum. *)

val vmax : Vreg.t -> Vreg.t -> Vinsn.vsrc -> Vinsn.asm
(** Lane-wise signed maximum. *)

val vshr : Vreg.t -> Vreg.t -> Vinsn.vsrc -> Vinsn.asm
(** Lane-wise arithmetic shift right. *)

val vqadd : ?esize:Esize.t -> ?signed:bool -> Vreg.t -> Vreg.t -> Vreg.t -> Vinsn.asm
(** Saturating lane-wise addition at the given element size (the SIMD
    image of the compare/move saturation idiom). *)

val vqsub : ?esize:Esize.t -> ?signed:bool -> Vreg.t -> Vreg.t -> Vreg.t -> Vinsn.asm
(** Saturating lane-wise subtraction. *)

val vlds :
  ?esize:Esize.t -> ?signed:bool -> stride:int -> phase:int -> Vreg.t -> string -> Vinsn.asm
(** {e Extension}: de-interleaving load — lane [i] reads element
    [stride * (ind + i) + phase]. *)

val vsts :
  ?esize:Esize.t -> stride:int -> phase:int -> Vreg.t -> string -> Vinsn.asm
(** {e Extension}: interleaving store — lane [i] writes element
    [stride * (ind + i) + phase]. *)

val vld2 : ?esize:Esize.t -> ?signed:bool -> phase:int -> Vreg.t -> string -> Vinsn.asm
(** {!vlds} at stride 2 — the [VLD2] even/odd de-interleave. *)

val vst2 : ?esize:Esize.t -> phase:int -> Vreg.t -> string -> Vinsn.asm
(** {!vsts} at stride 2 — the [VST2] even/odd interleave. *)

val vtbl : ?esize:Esize.t -> ?signed:bool -> Vreg.t -> string -> Vreg.t -> Vinsn.asm
(** {e Extension} ([VTBL]): [vtbl dst table idx] — lane [i] of [dst]
    reads element [idx.(i)] of [table]. *)

val vbfly : int -> Vreg.t -> Vreg.t -> Vinsn.asm
(** [vbfly b dst src]: half-swap butterfly over blocks of [b]. *)

val vrev : int -> Vreg.t -> Vreg.t -> Vinsn.asm
(** [vrev b dst src]: element reversal over blocks of [b]. *)

val vrot : block:int -> by:int -> Vreg.t -> Vreg.t -> Vinsn.asm
(** Blockwise rotation (the stencil-neighbour permutation). *)

val vred : Opcode.t -> Reg.t -> Vreg.t -> Vinsn.asm
(** [vred op acc src]: fold [src]'s lanes into scalar accumulator [acc]
    with associative [op] (Table 1 category 4). *)

val vr : Vreg.t -> Vinsn.vsrc
(** A vector-register source operand. *)

val vi : int -> Vinsn.vsrc
(** A splatted scalar immediate source operand. *)

val vc : int array -> Vinsn.vsrc
(** A per-lane constant-vector source operand (length = pattern
    period; tiled to the accelerator width). *)

val vmask : int list -> Vinsn.vsrc
(** Lane-mask constant: one entry per lane of the pattern, [0] clears the
    lane, non-zero keeps it (encoded as all-ones words for use with
    [vand]). *)
