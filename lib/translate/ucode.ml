open Liquid_isa
open Liquid_visa

type uop =
  | US of Insn.exec
  | UV of Vinsn.exec
  | UG of Governed.t
  | UB of { cond : Cond.t; target : int }
  | URet

type kind = Fixed | Vla | Rvv

type guard = {
  g_addr : int;
  g_bytes : int;
  g_signed : bool;
  g_expect : int;
}

type t = {
  uops : uop array;
  width : int;
  kind : kind;
  lmul : int;
  source_insns : int;
  observed_insns : int;
  guards : guard array;
}

let length t = Array.length t.uops

(* Synthetic predictor key for an intra-microcode branch. Offset past the
   image address space (program counters are far below 2^30) so microcode
   branches never alias image branches in the predictor's index space;
   [entry * max_uops + index] is unique per (region, branch site). *)
let branch_key ~entry ~max_uops ~index = 0x40000000 + (entry * max_uops) + index

let pp_uop ppf = function
  | US i -> Insn.pp_exec ppf i
  | UV v -> Vinsn.pp_exec ppf v
  | UG g -> Governed.pp ppf g
  | UB { cond; target } ->
      Format.fprintf ppf "b%s u%d"
        (match cond with Cond.Al -> "" | c -> Cond.suffix c)
        target
  | URet -> Format.pp_print_string ppf "ret"

let pp ppf t =
  Format.fprintf ppf "@[<v>; microcode (%d-wide%s, %d uops%s)@ " t.width
    (match t.kind with
    | Fixed -> ""
    | Vla -> " vla"
    | Rvv -> Printf.sprintf " rvv m%d" t.lmul)
    (Array.length t.uops)
    (match Array.length t.guards with
    | 0 -> ""
    | n -> Printf.sprintf ", %d guards" n);
  Array.iteri (fun i u -> Format.fprintf ppf "u%-3d %a@ " i pp_uop u) t.uops;
  Format.fprintf ppf "@]"
