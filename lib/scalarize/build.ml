open Liquid_isa
open Liquid_visa
open Liquid_prog

let r = Reg.make
let v = Vreg.make
let label l = Program.Label l
let item insn = Program.I (Minsn.S insn)

let mov dst imm = item (Insn.Mov { cond = Cond.Al; dst; src = Imm imm })
let movr dst src = item (Insn.Mov { cond = Cond.Al; dst; src = Reg src })
let movc cond dst imm = item (Insn.Mov { cond; dst; src = Imm imm })
let dp op dst src1 src2 = item (Insn.Dp { cond = Cond.Al; op; dst; src1; src2 })
let addi dst src1 k = dp Opcode.Add dst src1 (Imm k)

let ld ?(esize = Esize.Word) ?(signed = true) dst sym index =
  item
    (Insn.Ld
       {
         esize;
         signed;
         dst;
         base = Sym sym;
         index;
         shift = Esize.shift esize;
       })

let st ?(esize = Esize.Word) src sym index =
  item (Insn.St { esize; src; base = Sym sym; index; shift = Esize.shift esize })

let cmp src1 src2 = item (Insn.Cmp { src1; src2 })
let b ?(cond = Cond.Al) target = item (Insn.B { cond; target })
let bl target = item (Insn.Bl { target; region = false })
let bl_region target = item (Insn.Bl { target; region = true })
let ret = item Insn.Ret
let halt = item Insn.Halt
let ri reg = Insn.Reg reg
let i k = Insn.Imm k

let counted_loop ~name ~count ~ind body =
  [ mov ind 0; label name ]
  @ body
  @ [ addi ind ind 1; cmp ind (Insn.Imm count); b ~cond:Cond.Lt name ]

let vld ?(esize = Esize.Word) ?(signed = true) dst sym =
  Vinsn.Vld { esize; signed; dst; base = Sym sym; index = Reg.make 0 }

let vst ?(esize = Esize.Word) src sym =
  Vinsn.Vst { esize; src; base = Sym sym; index = Reg.make 0 }

let vdp op dst src1 src2 = Vinsn.Vdp { op; dst; src1; src2 }
let vadd d a b = vdp Opcode.Add d a b
let vsub d a b = vdp Opcode.Sub d a b
let vmul d a b = vdp Opcode.Mul d a b
let vand d a b = vdp Opcode.And d a b
let vorr d a b = vdp Opcode.Orr d a b
let vmin d a b = vdp Opcode.Smin d a b
let vmax d a b = vdp Opcode.Smax d a b
let vshr d a b = vdp Opcode.Asr d a b

let vqadd ?(esize = Esize.Byte) ?(signed = false) dst src1 src2 =
  Vinsn.Vsat { op = `Add; esize; signed; dst; src1; src2 }

let vqsub ?(esize = Esize.Byte) ?(signed = false) dst src1 src2 =
  Vinsn.Vsat { op = `Sub; esize; signed; dst; src1; src2 }

let vlds ?(esize = Esize.Word) ?(signed = true) ~stride ~phase dst sym =
  Vinsn.Vlds
    { esize; signed; dst; base = Sym sym; index = Reg.make 0; stride; phase }

let vsts ?(esize = Esize.Word) ~stride ~phase src sym =
  Vinsn.Vsts
    { esize; src; base = Sym sym; index = Reg.make 0; stride; phase }

let vld2 ?esize ?signed ~phase dst sym = vlds ?esize ?signed ~stride:2 ~phase dst sym
let vst2 ?esize ~phase src sym = vsts ?esize ~stride:2 ~phase src sym

let vtbl ?(esize = Esize.Word) ?(signed = true) dst table index_v =
  Vinsn.Vgather { esize; signed; dst; base = Sym table; index_v }

let vbfly b dst src = Vinsn.Vperm { pattern = Perm.Halfswap b; dst; src }
let vrev b dst src = Vinsn.Vperm { pattern = Perm.Reverse b; dst; src }
let vrot ~block ~by dst src = Vinsn.Vperm { pattern = Perm.Rotate { block; by }; dst; src }
let vred op acc src = Vinsn.Vred { op; acc; src }
let vr reg = Vinsn.VR reg
let vi k = Vinsn.VImm k
let vc a = Vinsn.VConst a

let vmask lanes =
  Vinsn.VConst (Array.of_list (List.map (fun x -> if x = 0 then 0 else -1) lanes))
