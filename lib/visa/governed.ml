open Liquid_isa

type governor = Pred | Vl

type t =
  | Set of { gov : governor; counter : Reg.t; bound : int }
  | Op of { gov : governor; v : int Vinsn.t }
  | Step of { gov : governor; dst : Reg.t }
  | Tblidx of { gov : governor; pattern : Perm.t }
  | Tbl of {
      gov : governor;
      esize : Esize.t;
      signed : bool;
      dst : Vreg.t;
      base : int Insn.base;
      counter : Reg.t;
      pattern : Perm.t;
    }
  | Tblst of {
      gov : governor;
      esize : Esize.t;
      src : Vreg.t;
      base : int Insn.base;
      counter : Reg.t;
      pattern : Perm.t;
    }

let index = function Pred -> 0 | Vl -> 1

let reads_count = function
  | Op _ | Tbl _ | Tblst _ -> true
  | Set _ | Step _ | Tblidx _ -> false

let is_vector = function
  | Op _ | Tblidx _ | Tbl _ | Tblst _ -> true
  | Set _ | Step _ -> false

let defs_vector = function
  | Op { v; _ } -> Vinsn.defs_vector v
  | Tbl { dst; _ } -> [ dst ]
  | Set _ | Step _ | Tblidx _ | Tblst _ -> []

let uses_vector = function
  | Op { v; _ } -> Vinsn.uses_vector v
  | Tblst { src; _ } -> [ src ]
  | Set _ | Step _ | Tblidx _ | Tbl _ -> []

let pp_base ppf = function
  | Insn.Sym a -> Format.fprintf ppf "0x%x" a
  | Insn.Breg r -> Reg.pp ppf r

let signed_suffix esize signed =
  if signed && esize <> Esize.Word then "s" else ""

let pp ppf = function
  | Set { gov = Pred; counter; bound } ->
      Format.fprintf ppf "whilelt p0, %a, #%d" Reg.pp counter bound
  | Set { gov = Vl; counter; bound } ->
      Format.fprintf ppf "vsetvl vl, %a, #%d" Reg.pp counter bound
  | Op { gov = Pred; v } -> Format.fprintf ppf "p0/z %a" Vinsn.pp_exec v
  | Op { gov = Vl; v } -> Format.fprintf ppf "vl/%a" Vinsn.pp_exec v
  | Step { gov = Pred; dst } -> Format.fprintf ppf "incvl %a" Reg.pp dst
  | Step { gov = Vl; dst } ->
      Format.fprintf ppf "add %a, %a, vl" Reg.pp dst Reg.pp dst
  | Tblidx { gov = Pred; pattern } ->
      Format.fprintf ppf "tblidx %a" Perm.pp pattern
  | Tblidx { gov = Vl; pattern } -> Format.fprintf ppf "vidx %a" Perm.pp pattern
  | Tbl { gov; esize; signed; dst; base; counter; pattern } ->
      Format.fprintf ppf "%s%s%s.%a %a, [%a + %a]"
        (match gov with Pred -> "p0/z tbl" | Vl -> "vl/vlux")
        (Esize.suffix esize) (signed_suffix esize signed) Perm.pp pattern
        Vreg.pp dst pp_base base Reg.pp counter
  | Tblst { gov; esize; src; base; counter; pattern } ->
      Format.fprintf ppf "%s%s.%a [%a + %a], %a"
        (match gov with Pred -> "p0/z tblst" | Vl -> "vl/vsux")
        (Esize.suffix esize) Perm.pp pattern pp_base base Reg.pp counter
        Vreg.pp src
