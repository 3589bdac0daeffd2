(** Baseline scalar instructions.

    The type is polymorphic in how data symbols and branch targets are
    named so that the same constructors serve two program forms:

    - {!asm} — assembly form: data bases are symbolic names, branch
      targets are label names;
    - {!exec} — executable form after layout: data bases are absolute
      addresses, branch targets are instruction indices into the code
      array.

    Addressing is [base + index lsl shift], where the base is a symbol or
    a register and the index a register or an immediate. This mirrors the
    ARM scaled register offset mode that the paper's scalar representation
    relies on (the shift re-scales an element index into a byte offset). *)

type operand = Imm of int | Reg of Reg.t

type 'sym base = Sym of 'sym | Breg of Reg.t

type ('sym, 'lab) t =
  | Mov of { cond : Cond.t; dst : Reg.t; src : operand }
  | Dp of {
      cond : Cond.t;
      op : Opcode.t;
      dst : Reg.t;
      src1 : Reg.t;
      src2 : operand;
    }
  | Ld of {
      esize : Esize.t;
      signed : bool;
      dst : Reg.t;
      base : 'sym base;
      index : operand;
      shift : int;
    }
  | St of {
      esize : Esize.t;
      src : Reg.t;
      base : 'sym base;
      index : operand;
      shift : int;
    }
  | Cmp of { src1 : Reg.t; src2 : operand }
  | B of { cond : Cond.t; target : 'lab }
  | Bl of { target : 'lab; region : bool }
      (** Branch-and-link. [region] marks the unique branch-and-link
          variant used for translatable outlined functions (paper §3.5). *)
  | Ret
  | Halt

type asm = (string, string) t
type exec = (int, int) t

val map : sym:('a -> 'c) -> lab:('b -> 'd) -> ('a, 'b) t -> ('c, 'd) t

val defs : ('a, 'b) t -> Reg.t list
(** Registers written (architecturally; link register for [Bl]). *)

val uses : ('a, 'b) t -> Reg.t list
(** Registers read, including base/index registers. *)

val uses_reg : ('a, 'b) t -> Reg.t -> bool
(** [uses_reg i r] is [List.exists (Reg.equal r) (uses i)] without
    building the list. *)

val is_branch : ('a, 'b) t -> bool
val equal : ('s -> 's -> bool) -> ('l -> 'l -> bool) -> ('s, 'l) t -> ('s, 'l) t -> bool
val equal_exec : exec -> exec -> bool

val pp :
  pp_sym:(Format.formatter -> 'sym -> unit) ->
  pp_lab:(Format.formatter -> 'lab -> unit) ->
  Format.formatter ->
  ('sym, 'lab) t ->
  unit

val pp_asm : Format.formatter -> asm -> unit
val pp_exec : Format.formatter -> exec -> unit
