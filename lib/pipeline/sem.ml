open Liquid_isa
open Liquid_visa
module Memory = Liquid_machine.Memory

exception Sigill of string

let max_lanes = Width.lanes Width.max
let no_value = Liquid_translate.Translator.no_value

type ctx = {
  regs : int array;
  mutable flags : Flags.t;
  vregs : int array array;
  counts : int array;
      (* active-lane count per governor ([Governed.index]): the prefix
         predicate [p0] and the [vl] grant *)
  mutable lanes : int;
  mem : Memory.t;
  (* Scratch effect of the most recent [exec_scalar]/[exec_vector]. A
     retired instruction's effect is consumed immediately by the timing
     layer, so one preallocated buffer replaces a record, a list and an
     option allocation per instruction. *)
  mutable e_value : int;  (** destination value, [no_value] when none *)
  mutable e_taken : int;  (** -1 none, 0 not taken, 1 taken *)
  mutable e_nacc : int;  (** live prefix of the access arrays *)
  acc_addr : int array;
  acc_bytes : int array;
  acc_write : bool array;
  gather_tmp : int array;  (** gather staging: index vector may alias dst *)
  blk : Bytes.t;  (** staging buffer for block loads/stores *)
  mutable n_pred_fast : int;
      (** predicated vector executions taken on the all-true fast path
          (full predicate: unmasked fixed-width semantics) *)
  mutable n_pred_masked : int;
      (** predicated vector executions that paid the masked path *)
  mutable n_tbl_builds : int;
      (** table-lookup index vectors materialized from the runtime
          vector length ([Governed.Tblidx] executions) *)
}

let create_ctx mem =
  {
    regs = Array.make Reg.count 0;
    flags = Flags.initial;
    vregs = Array.init Vreg.count (fun _ -> Array.make max_lanes 0);
    counts = Array.make 2 0;
    lanes = max_lanes;
    mem;
    e_value = no_value;
    e_taken = -1;
    e_nacc = 0;
    acc_addr = Array.make max_lanes 0;
    acc_bytes = Array.make max_lanes 0;
    acc_write = Array.make max_lanes false;
    gather_tmp = Array.make max_lanes 0;
    blk = Bytes.create (max_lanes * 4);
    n_pred_fast = 0;
    n_pred_masked = 0;
    n_tbl_builds = 0;
  }

type outcome =
  | Next
  | Jump of int
  | Call of { target : int; region : bool }
  | Return
  | Stop

type access = { addr : int; bytes : int; write : bool }

type effect = { value : int option; accesses : access list; taken : bool option }

let[@inline] clear_effect ctx =
  ctx.e_value <- no_value;
  ctx.e_taken <- -1;
  ctx.e_nacc <- 0

let[@inline] add_access ctx addr bytes write =
  let i = ctx.e_nacc in
  ctx.acc_addr.(i) <- addr;
  ctx.acc_bytes.(i) <- bytes;
  ctx.acc_write.(i) <- write;
  ctx.e_nacc <- i + 1

let last_effect ctx =
  let rec accs i acc =
    if i < 0 then acc
    else
      accs (i - 1)
        ({ addr = ctx.acc_addr.(i); bytes = ctx.acc_bytes.(i); write = ctx.acc_write.(i) }
        :: acc)
  in
  {
    value = (if ctx.e_value = no_value then None else Some ctx.e_value);
    accesses = accs (ctx.e_nacc - 1) [];
    taken = (match ctx.e_taken with 0 -> Some false | 1 -> Some true | _ -> None);
  }

let operand_value ctx = function
  | Insn.Imm v -> v
  | Insn.Reg r -> ctx.regs.(Reg.index r)

let base_value = function
  | Insn.Sym addr -> fun _ctx -> addr
  | Insn.Breg r -> fun ctx -> ctx.regs.(Reg.index r)

let mem_addr ctx ~base ~index ~shift =
  Word.add (base_value base ctx) (Word.shl (operand_value ctx index) shift)

let exec_scalar ctx ~pc insn =
  clear_effect ctx;
  match insn with
  | Insn.Mov { cond; dst; src } ->
      if Cond.holds cond ctx.flags then begin
        let v = Word.of_int (operand_value ctx src) in
        ctx.regs.(Reg.index dst) <- v;
        ctx.e_value <- v
      end;
      Next
  | Insn.Dp { cond; op; dst; src1; src2 } ->
      if Cond.holds cond ctx.flags then begin
        let v =
          Opcode.eval op ctx.regs.(Reg.index src1) (operand_value ctx src2)
        in
        ctx.regs.(Reg.index dst) <- v;
        ctx.e_value <- v
      end;
      Next
  | Insn.Ld { esize; signed; dst; base; index; shift } ->
      let addr = mem_addr ctx ~base ~index ~shift in
      let bytes = Esize.bytes esize in
      let v = Memory.read ctx.mem ~addr ~bytes ~signed in
      ctx.regs.(Reg.index dst) <- v;
      ctx.e_value <- v;
      add_access ctx addr bytes false;
      Next
  | Insn.St { esize; src; base; index; shift } ->
      let addr = mem_addr ctx ~base ~index ~shift in
      let bytes = Esize.bytes esize in
      Memory.write ctx.mem ~addr ~bytes ctx.regs.(Reg.index src);
      add_access ctx addr bytes true;
      Next
  | Insn.Cmp { src1; src2 } ->
      ctx.flags <-
        Flags.of_compare ctx.regs.(Reg.index src1) (operand_value ctx src2);
      Next
  | Insn.B { cond; target } ->
      if Cond.holds cond ctx.flags then begin
        ctx.e_taken <- 1;
        Jump target
      end
      else begin
        ctx.e_taken <- 0;
        Next
      end
  | Insn.Bl { target; region } ->
      ctx.regs.(Reg.index Reg.lr) <- pc + 1;
      ctx.e_value <- pc + 1;
      Call { target; region }
  | Insn.Ret -> Return
  | Insn.Halt -> Stop

let step_scalar ctx ~pc insn =
  let outcome = exec_scalar ctx ~pc insn in
  (outcome, last_effect ctx)

(* Pre-resolved load/store kernels for the translation-block engine
   ({!Liquid_pipeline.Blocks}): the block compiler resolves register
   names to indices and folds the address computation once. Each kernel
   is the corresponding [exec_scalar] arm minus decode and
   scratch-effect recording. The scratch value is only ever consumed by
   a live translator session; when the engine runs under one it reads
   the destination register back instead. *)

let[@inline] kernel_ld ctx ~addr ~bytes ~signed ~dst =
  ctx.regs.(dst) <- Memory.read ctx.mem ~addr ~bytes ~signed

let[@inline] kernel_st ctx ~addr ~bytes ~src =
  Memory.write ctx.mem ~addr ~bytes ctx.regs.(src)

let vsrc_lane ctx vsrc lane =
  match vsrc with
  | Vinsn.VR r -> ctx.vregs.(Vreg.index r).(lane)
  | Vinsn.VImm v -> v
  | Vinsn.VConst a ->
      if Array.length a <> ctx.lanes then
        raise (Sigill "constant vector width mismatch");
      a.(lane)

(* Decode [w] little-endian elements of [bytes] each from [ctx.blk] into
   [d], with the same signedness rules as {!Memory.read}. *)
let decode_lanes ctx d ~w ~bytes ~signed =
  let blk = ctx.blk in
  match bytes with
  | 1 ->
      if signed then
        for i = 0 to w - 1 do
          d.(i) <- Bytes.get_int8 blk i
        done
      else
        for i = 0 to w - 1 do
          d.(i) <- Bytes.get_uint8 blk i
        done
  | 2 ->
      if signed then
        for i = 0 to w - 1 do
          d.(i) <- Bytes.get_int16_le blk (2 * i)
        done
      else
        for i = 0 to w - 1 do
          d.(i) <- Bytes.get_uint16_le blk (2 * i)
        done
  | 4 ->
      for i = 0 to w - 1 do
        d.(i) <- Int32.to_int (Bytes.get_int32_le blk (4 * i))
      done
  | n -> invalid_arg (Printf.sprintf "Sem: bad element size %d" n)

let encode_lanes ctx s ~w ~bytes =
  let blk = ctx.blk in
  match bytes with
  | 1 ->
      for i = 0 to w - 1 do
        Bytes.unsafe_set blk i (Char.unsafe_chr (s.(i) land 0xFF))
      done
  | 2 ->
      for i = 0 to w - 1 do
        Bytes.set_uint16_le blk (2 * i) (s.(i) land 0xFFFF)
      done
  | 4 ->
      for i = 0 to w - 1 do
        Bytes.set_int32_le blk (4 * i) (Int32.of_int s.(i))
      done
  | n -> invalid_arg (Printf.sprintf "Sem: bad element size %d" n)

let exec_vector ctx vinsn =
  clear_effect ctx;
  let w = ctx.lanes in
  match vinsn with
  | Vinsn.Vld { esize; signed; dst; base; index } ->
      let bytes = Esize.bytes esize in
      let first = ctx.regs.(Reg.index index) in
      let start = Word.add (base_value base ctx) (Word.mul first bytes) in
      let d = ctx.vregs.(Vreg.index dst) in
      Memory.read_block ctx.mem ~addr:start ~len:(w * bytes) ctx.blk;
      decode_lanes ctx d ~w ~bytes ~signed;
      add_access ctx start (w * bytes) false
  | Vinsn.Vst { esize; src; base; index } ->
      let bytes = Esize.bytes esize in
      let first = ctx.regs.(Reg.index index) in
      let start = Word.add (base_value base ctx) (Word.mul first bytes) in
      let s = ctx.vregs.(Vreg.index src) in
      encode_lanes ctx s ~w ~bytes;
      Memory.write_block ctx.mem ~addr:start ~len:(w * bytes) ctx.blk;
      add_access ctx start (w * bytes) true
  | Vinsn.Vlds { esize; signed; dst; base; index; stride; phase } ->
      let bytes = Esize.bytes esize in
      let first = ctx.regs.(Reg.index index) in
      let base_addr = base_value base ctx in
      let d = ctx.vregs.(Vreg.index dst) in
      for i = 0 to w - 1 do
        let elem = (stride * (first + i)) + phase in
        d.(i) <- Memory.read ctx.mem ~addr:(base_addr + (elem * bytes)) ~bytes ~signed
      done;
      let start = base_addr + (((stride * first) + phase) * bytes) in
      add_access ctx start (((stride * (w - 1)) + 1) * bytes) false
  | Vinsn.Vsts { esize; src; base; index; stride; phase } ->
      let bytes = Esize.bytes esize in
      let first = ctx.regs.(Reg.index index) in
      let base_addr = base_value base ctx in
      let s = ctx.vregs.(Vreg.index src) in
      for i = 0 to w - 1 do
        let elem = (stride * (first + i)) + phase in
        Memory.write ctx.mem ~addr:(base_addr + (elem * bytes)) ~bytes s.(i)
      done;
      let start = base_addr + (((stride * first) + phase) * bytes) in
      add_access ctx start (((stride * (w - 1)) + 1) * bytes) true
  | Vinsn.Vgather { esize; signed; dst; base; index_v } ->
      let bytes = Esize.bytes esize in
      let base_addr = base_value base ctx in
      let idx = ctx.vregs.(Vreg.index index_v) in
      let d = ctx.vregs.(Vreg.index dst) in
      let tmp = ctx.gather_tmp in
      (* Conservative access accounting: one element-sized touch per
         lane, staged through [tmp] since [idx] may alias [dst]. *)
      for i = 0 to w - 1 do
        let addr = base_addr + (idx.(i) * bytes) in
        tmp.(i) <- Memory.read ctx.mem ~addr ~bytes ~signed;
        add_access ctx addr bytes false
      done;
      Array.blit tmp 0 d 0 w
  | Vinsn.Vdp { op; dst; src1; src2 } ->
      let a = ctx.vregs.(Vreg.index src1) in
      let d = ctx.vregs.(Vreg.index dst) in
      (* Lane [i] reads only lane [i] of each source, so writing in place
         is safe even when [dst] aliases a source. *)
      for i = 0 to w - 1 do
        d.(i) <- Opcode.eval op a.(i) (vsrc_lane ctx src2 i)
      done
  | Vinsn.Vsat { op; esize; signed; dst; src1; src2 } ->
      let a = ctx.vregs.(Vreg.index src1) in
      let b = ctx.vregs.(Vreg.index src2) in
      let d = ctx.vregs.(Vreg.index dst) in
      let f = match op with `Add -> Word.sat_add | `Sub -> Word.sat_sub in
      for i = 0 to w - 1 do
        d.(i) <- f esize ~signed a.(i) b.(i)
      done
  | Vinsn.Vperm { pattern; dst; src } ->
      if not (Perm.supported pattern ~lanes:w) then
        raise
          (Sigill
             (Format.asprintf "permutation %a unsupported at %d lanes" Perm.pp
                pattern w));
      let s = Array.sub ctx.vregs.(Vreg.index src) 0 w in
      let permuted = Perm.apply pattern s in
      Array.blit permuted 0 ctx.vregs.(Vreg.index dst) 0 w
  | Vinsn.Vred { op; acc; src } ->
      let s = ctx.vregs.(Vreg.index src) in
      let folded = ref s.(0) in
      for i = 1 to w - 1 do
        folded := Opcode.eval op !folded s.(i)
      done;
      let v = Opcode.eval op ctx.regs.(Reg.index acc) !folded in
      ctx.regs.(Reg.index acc) <- v;
      ctx.e_value <- v

(* Predicated (vector-length-agnostic) execution. Only prefix predicates
   exist — [k] active lanes 0..k-1 — with zeroing semantics: inactive
   destination lanes are cleared, inactive load/store lanes touch no
   memory, reductions fold active lanes only. The common full-predicate
   case delegates to {!exec_vector} so the two paths cannot drift. *)
let exec_vector_masked ctx ~k vinsn =
  let w = ctx.lanes in
  match vinsn with
  | Vinsn.Vld { esize; signed; dst; base; index } ->
      let bytes = Esize.bytes esize in
      let d = ctx.vregs.(Vreg.index dst) in
      if k > 0 then begin
        let first = ctx.regs.(Reg.index index) in
        let start = Word.add (base_value base ctx) (Word.mul first bytes) in
        Memory.read_block ctx.mem ~addr:start ~len:(k * bytes) ctx.blk;
        decode_lanes ctx d ~w:k ~bytes ~signed;
        add_access ctx start (k * bytes) false
      end;
      Array.fill d k (w - k) 0
  | Vinsn.Vst { esize; src; base; index } ->
      if k > 0 then begin
        let bytes = Esize.bytes esize in
        let first = ctx.regs.(Reg.index index) in
        let start = Word.add (base_value base ctx) (Word.mul first bytes) in
        let s = ctx.vregs.(Vreg.index src) in
        encode_lanes ctx s ~w:k ~bytes;
        Memory.write_block ctx.mem ~addr:start ~len:(k * bytes) ctx.blk;
        add_access ctx start (k * bytes) true
      end
  | Vinsn.Vlds { esize; signed; dst; base; index; stride; phase } ->
      let bytes = Esize.bytes esize in
      let d = ctx.vregs.(Vreg.index dst) in
      if k > 0 then begin
        let first = ctx.regs.(Reg.index index) in
        let base_addr = base_value base ctx in
        for i = 0 to k - 1 do
          let elem = (stride * (first + i)) + phase in
          d.(i) <-
            Memory.read ctx.mem ~addr:(base_addr + (elem * bytes)) ~bytes ~signed
        done;
        let start = base_addr + (((stride * first) + phase) * bytes) in
        add_access ctx start (((stride * (k - 1)) + 1) * bytes) false
      end;
      Array.fill d k (w - k) 0
  | Vinsn.Vsts { esize; src; base; index; stride; phase } ->
      if k > 0 then begin
        let bytes = Esize.bytes esize in
        let first = ctx.regs.(Reg.index index) in
        let base_addr = base_value base ctx in
        let s = ctx.vregs.(Vreg.index src) in
        for i = 0 to k - 1 do
          let elem = (stride * (first + i)) + phase in
          Memory.write ctx.mem ~addr:(base_addr + (elem * bytes)) ~bytes s.(i)
        done;
        let start = base_addr + (((stride * first) + phase) * bytes) in
        add_access ctx start (((stride * (k - 1)) + 1) * bytes) true
      end
  | Vinsn.Vgather { esize; signed; dst; base; index_v } ->
      let bytes = Esize.bytes esize in
      let base_addr = base_value base ctx in
      let idx = ctx.vregs.(Vreg.index index_v) in
      let d = ctx.vregs.(Vreg.index dst) in
      let tmp = ctx.gather_tmp in
      for i = 0 to k - 1 do
        let addr = base_addr + (idx.(i) * bytes) in
        tmp.(i) <- Memory.read ctx.mem ~addr ~bytes ~signed;
        add_access ctx addr bytes false
      done;
      Array.blit tmp 0 d 0 k;
      Array.fill d k (w - k) 0
  | Vinsn.Vdp { op; dst; src1; src2 } ->
      let a = ctx.vregs.(Vreg.index src1) in
      let d = ctx.vregs.(Vreg.index dst) in
      for i = 0 to k - 1 do
        d.(i) <- Opcode.eval op a.(i) (vsrc_lane ctx src2 i)
      done;
      Array.fill d k (w - k) 0
  | Vinsn.Vsat { op; esize; signed; dst; src1; src2 } ->
      let a = ctx.vregs.(Vreg.index src1) in
      let b = ctx.vregs.(Vreg.index src2) in
      let d = ctx.vregs.(Vreg.index dst) in
      let f = match op with `Add -> Word.sat_add | `Sub -> Word.sat_sub in
      for i = 0 to k - 1 do
        d.(i) <- f esize ~signed a.(i) b.(i)
      done;
      Array.fill d k (w - k) 0
  | Vinsn.Vperm _ ->
      (* The governed backends lower permutations to the table-lookup
         ops ([Governed.Tbl]/[Governed.Tblst]) rather than predicating a
         register permute, so a predicated [Vperm] can only mean
         corrupted microcode. *)
      raise (Sigill "predicated permutation")
  | Vinsn.Vred { op; acc; src } ->
      if k > 0 then begin
        let s = ctx.vregs.(Vreg.index src) in
        let folded = ref s.(0) in
        for i = 1 to k - 1 do
          folded := Opcode.eval op !folded s.(i)
        done;
        let v = Opcode.eval op ctx.regs.(Reg.index acc) !folded in
        ctx.regs.(Reg.index acc) <- v;
        ctx.e_value <- v
      end

(* Governed execution. The governor's count plays the same role under
   both targets: [Set] computes [min(max(bound - counter, 0), lanes)]
   and every body op processes exactly that many lanes until the next
   [Set]. Only [Step] reads the governor: the predicate target advances
   by the hardware width, the grant target by the grant. *)
let exec_governed ctx (g : Governed.t) =
  match g with
  | Governed.Set { gov; counter; bound } ->
      clear_effect ctx;
      let c = ctx.regs.(Reg.index counter) in
      let k = bound - c in
      let k = if k < 0 then 0 else if k > ctx.lanes then ctx.lanes else k in
      ctx.counts.(Governed.index gov) <- k;
      ctx.flags <- Flags.of_compare c bound
  | Governed.Step { gov; dst } ->
      clear_effect ctx;
      let by =
        match gov with
        | Governed.Pred -> ctx.lanes
        | Governed.Vl -> ctx.counts.(Governed.index gov)
      in
      let v = Word.add ctx.regs.(Reg.index dst) by in
      ctx.regs.(Reg.index dst) <- v;
      ctx.e_value <- v
  | Governed.Op { gov; v } ->
      let k = ctx.counts.(Governed.index gov) in
      if k >= ctx.lanes then begin
        (* all-true fast path: every lane active, so the unmasked
           fixed-width semantics apply verbatim (counted before exec so
           the tally survives a [Sigill] escaping mid-instruction) *)
        ctx.n_pred_fast <- ctx.n_pred_fast + 1;
        exec_vector ctx v
      end
      else begin
        ctx.n_pred_masked <- ctx.n_pred_masked + 1;
        clear_effect ctx;
        exec_vector_masked ctx ~k v
      end
  | Governed.Tblidx _ ->
      (* The index build is pure register-state setup; the simulator
         derives lane indices directly from the pattern at each lookup,
         so only the build count is architectural here. *)
      clear_effect ctx;
      ctx.n_tbl_builds <- ctx.n_tbl_builds + 1
  | Governed.Tbl { gov; esize; signed; dst; base; counter; pattern } ->
      let w = ctx.lanes in
      let k = ctx.counts.(Governed.index gov) in
      let k = if k > w then w else k in
      if k >= w then ctx.n_pred_fast <- ctx.n_pred_fast + 1
      else ctx.n_pred_masked <- ctx.n_pred_masked + 1;
      clear_effect ctx;
      let bytes = Esize.bytes esize in
      let base_addr = base_value base ctx in
      let c = ctx.regs.(Reg.index counter) in
      let d = ctx.vregs.(Vreg.index dst) in
      for j = 0 to k - 1 do
        let addr = base_addr + (Perm.src_index pattern (c + j) * bytes) in
        d.(j) <- Memory.read ctx.mem ~addr ~bytes ~signed;
        add_access ctx addr bytes false
      done;
      Array.fill d k (w - k) 0
  | Governed.Tblst { gov; esize; src; base; counter; pattern } ->
      let w = ctx.lanes in
      let k = ctx.counts.(Governed.index gov) in
      let k = if k > w then w else k in
      if k >= w then ctx.n_pred_fast <- ctx.n_pred_fast + 1
      else ctx.n_pred_masked <- ctx.n_pred_masked + 1;
      clear_effect ctx;
      let bytes = Esize.bytes esize in
      let base_addr = base_value base ctx in
      let c = ctx.regs.(Reg.index counter) in
      let s = ctx.vregs.(Vreg.index src) in
      for j = 0 to k - 1 do
        let addr = base_addr + (Perm.src_index pattern (c + j) * bytes) in
        Memory.write ctx.mem ~addr ~bytes s.(j);
        add_access ctx addr bytes true
      done

let step_vector ctx vinsn =
  exec_vector ctx vinsn;
  last_effect ctx

(* --- closure compilation ---

   [compile_vector]/[compile_governed] turn one vector (or governed)
   instruction into a specialized [unit -> unit] closure for the block
   engine:
   operand registers are resolved to the context arrays once, the lane
   count is baked in (the engine only replays a compiled op while
   [ctx.lanes] equals the baked count), element decode/encode loops are
   monomorphized per element size, and the opcode dispatch is
   pre-resolved through {!Opcode.fn}.

   The contract mirrors the scalar kernels above: architectural state
   (registers, vector registers, governor counts, flags, memory) changes
   exactly as under [exec_vector]/[exec_governed], and the access
   scratch prefix ([e_nacc]/[acc_*]) is maintained exactly — the engine
   derives data-cache charges from it. The value/taken scratch fields
   are skipped; they are only consumed by a trace observer, which turns
   the block engine off, or by a live translator session, under which
   the engine runs scalar blocks only (feeding the session from their
   destination registers) and never these vector closures. A compiled
   op that must fault ([Sigill]) does so on every execution, matching
   the interpretive per-execution check. *)

let[@inline] set_access ctx i addr bytes write =
  ctx.acc_addr.(i) <- addr;
  ctx.acc_bytes.(i) <- bytes;
  ctx.acc_write.(i) <- write

let compile_base ctx = function
  | Insn.Sym addr -> fun () -> addr
  | Insn.Breg r ->
      let i = Reg.index r in
      fun () -> Array.unsafe_get ctx.regs i

let compile_decode ctx d ~w ~bytes ~signed =
  let blk = ctx.blk in
  match bytes with
  | 1 ->
      if signed then fun () ->
        for i = 0 to w - 1 do
          d.(i) <- Bytes.get_int8 blk i
        done
      else fun () ->
        for i = 0 to w - 1 do
          d.(i) <- Bytes.get_uint8 blk i
        done
  | 2 ->
      if signed then fun () ->
        for i = 0 to w - 1 do
          d.(i) <- Bytes.get_int16_le blk (2 * i)
        done
      else fun () ->
        for i = 0 to w - 1 do
          d.(i) <- Bytes.get_uint16_le blk (2 * i)
        done
  | 4 ->
      fun () ->
        for i = 0 to w - 1 do
          d.(i) <- Int32.to_int (Bytes.get_int32_le blk (4 * i))
        done
  | n -> invalid_arg (Printf.sprintf "Sem: bad element size %d" n)

let compile_encode ctx s ~w ~bytes =
  let blk = ctx.blk in
  match bytes with
  | 1 ->
      fun () ->
        for i = 0 to w - 1 do
          Bytes.unsafe_set blk i (Char.unsafe_chr (s.(i) land 0xFF))
        done
  | 2 ->
      fun () ->
        for i = 0 to w - 1 do
          Bytes.set_uint16_le blk (2 * i) (s.(i) land 0xFFFF)
        done
  | 4 ->
      fun () ->
        for i = 0 to w - 1 do
          Bytes.set_int32_le blk (4 * i) (Int32.of_int s.(i))
        done
  | n -> invalid_arg (Printf.sprintf "Sem: bad element size %d" n)

let compile_vector ctx ~lanes:w (vinsn : Vinsn.exec) =
  match vinsn with
  | Vinsn.Vld { esize; signed; dst; base; index } ->
      let bytes = Esize.bytes esize in
      let len = w * bytes in
      let d = ctx.vregs.(Vreg.index dst) in
      let ii = Reg.index index in
      let getb = compile_base ctx base in
      let decode = compile_decode ctx d ~w ~bytes ~signed in
      fun () ->
        let start = Word.add (getb ()) (Word.mul ctx.regs.(ii) bytes) in
        Memory.read_block ctx.mem ~addr:start ~len ctx.blk;
        decode ();
        set_access ctx 0 start len false;
        ctx.e_nacc <- 1
  | Vinsn.Vst { esize; src; base; index } ->
      let bytes = Esize.bytes esize in
      let len = w * bytes in
      let s = ctx.vregs.(Vreg.index src) in
      let ii = Reg.index index in
      let getb = compile_base ctx base in
      let encode = compile_encode ctx s ~w ~bytes in
      fun () ->
        let start = Word.add (getb ()) (Word.mul ctx.regs.(ii) bytes) in
        encode ();
        Memory.write_block ctx.mem ~addr:start ~len ctx.blk;
        set_access ctx 0 start len true;
        ctx.e_nacc <- 1
  | Vinsn.Vlds { esize; signed; dst; base; index; stride; phase } ->
      let bytes = Esize.bytes esize in
      let span = ((stride * (w - 1)) + 1) * bytes in
      let d = ctx.vregs.(Vreg.index dst) in
      let ii = Reg.index index in
      let getb = compile_base ctx base in
      fun () ->
        let base_addr = getb () in
        let first = ctx.regs.(ii) in
        for i = 0 to w - 1 do
          let elem = (stride * (first + i)) + phase in
          d.(i) <-
            Memory.read ctx.mem ~addr:(base_addr + (elem * bytes)) ~bytes ~signed
        done;
        set_access ctx 0 (base_addr + (((stride * first) + phase) * bytes)) span
          false;
        ctx.e_nacc <- 1
  | Vinsn.Vsts { esize; src; base; index; stride; phase } ->
      let bytes = Esize.bytes esize in
      let span = ((stride * (w - 1)) + 1) * bytes in
      let s = ctx.vregs.(Vreg.index src) in
      let ii = Reg.index index in
      let getb = compile_base ctx base in
      fun () ->
        let base_addr = getb () in
        let first = ctx.regs.(ii) in
        for i = 0 to w - 1 do
          let elem = (stride * (first + i)) + phase in
          Memory.write ctx.mem ~addr:(base_addr + (elem * bytes)) ~bytes s.(i)
        done;
        set_access ctx 0 (base_addr + (((stride * first) + phase) * bytes)) span
          true;
        ctx.e_nacc <- 1
  | Vinsn.Vgather { esize; signed; dst; base; index_v } ->
      let bytes = Esize.bytes esize in
      let idx = ctx.vregs.(Vreg.index index_v) in
      let d = ctx.vregs.(Vreg.index dst) in
      let tmp = ctx.gather_tmp in
      let getb = compile_base ctx base in
      fun () ->
        let base_addr = getb () in
        for i = 0 to w - 1 do
          let addr = base_addr + (idx.(i) * bytes) in
          tmp.(i) <- Memory.read ctx.mem ~addr ~bytes ~signed;
          set_access ctx i addr bytes false
        done;
        ctx.e_nacc <- w;
        Array.blit tmp 0 d 0 w
  | Vinsn.Vdp { op; dst; src1; src2 } -> (
      let a = ctx.vregs.(Vreg.index src1) in
      let d = ctx.vregs.(Vreg.index dst) in
      match src2 with
      | Vinsn.VR r2 -> (
          let b = ctx.vregs.(Vreg.index r2) in
          match op with
          | Opcode.Add ->
              fun () ->
                for i = 0 to w - 1 do
                  Array.unsafe_set d i
                    (Word.add (Array.unsafe_get a i) (Array.unsafe_get b i))
                done;
                ctx.e_nacc <- 0
          | Opcode.Sub ->
              fun () ->
                for i = 0 to w - 1 do
                  Array.unsafe_set d i
                    (Word.sub (Array.unsafe_get a i) (Array.unsafe_get b i))
                done;
                ctx.e_nacc <- 0
          | Opcode.Mul ->
              fun () ->
                for i = 0 to w - 1 do
                  Array.unsafe_set d i
                    (Word.mul (Array.unsafe_get a i) (Array.unsafe_get b i))
                done;
                ctx.e_nacc <- 0
          | _ ->
              let f = Opcode.fn op in
              fun () ->
                for i = 0 to w - 1 do
                  Array.unsafe_set d i
                    (f (Array.unsafe_get a i) (Array.unsafe_get b i))
                done;
                ctx.e_nacc <- 0)
      | Vinsn.VImm v ->
          let f = Opcode.fn op in
          fun () ->
            for i = 0 to w - 1 do
              Array.unsafe_set d i (f (Array.unsafe_get a i) v)
            done;
            ctx.e_nacc <- 0
      | Vinsn.VConst arr ->
          if Array.length arr <> w then fun () ->
            (* the interpretive path checks the width on every execution
               (through [vsrc_lane]); fault identically, forever *)
            clear_effect ctx;
            raise (Sigill "constant vector width mismatch")
          else
            let f = Opcode.fn op in
            fun () ->
              for i = 0 to w - 1 do
                Array.unsafe_set d i
                  (f (Array.unsafe_get a i) (Array.unsafe_get arr i))
              done;
              ctx.e_nacc <- 0)
  | Vinsn.Vsat { op; esize; signed; dst; src1; src2 } ->
      let a = ctx.vregs.(Vreg.index src1) in
      let b = ctx.vregs.(Vreg.index src2) in
      let d = ctx.vregs.(Vreg.index dst) in
      let f = match op with `Add -> Word.sat_add | `Sub -> Word.sat_sub in
      fun () ->
        for i = 0 to w - 1 do
          d.(i) <- f esize ~signed a.(i) b.(i)
        done;
        ctx.e_nacc <- 0
  | Vinsn.Vperm { pattern; dst; src } ->
      if not (Perm.supported pattern ~lanes:w) then fun () ->
        clear_effect ctx;
        raise
          (Sigill
             (Format.asprintf "permutation %a unsupported at %d lanes" Perm.pp
                pattern w))
      else begin
        (* [Perm.apply] is positional, so applying it to the identity
           yields the source index of every destination lane once *)
        let map = Perm.apply pattern (Array.init w (fun i -> i)) in
        let s = ctx.vregs.(Vreg.index src) in
        let d = ctx.vregs.(Vreg.index dst) in
        let tmp = ctx.gather_tmp in
        fun () ->
          for i = 0 to w - 1 do
            tmp.(i) <- s.(map.(i))
          done;
          Array.blit tmp 0 d 0 w;
          ctx.e_nacc <- 0
      end
  | Vinsn.Vred { op; acc; src } ->
      let s = ctx.vregs.(Vreg.index src) in
      let ai = Reg.index acc in
      let f = Opcode.fn op in
      fun () ->
        let folded = ref s.(0) in
        for i = 1 to w - 1 do
          folded := f !folded s.(i)
        done;
        ctx.regs.(ai) <- f ctx.regs.(ai) !folded;
        ctx.e_nacc <- 0

let compile_governed ctx ~lanes (g : Governed.t) =
  match g with
  | Governed.Set { gov; counter; bound } ->
      let ci = Reg.index counter in
      let gi = Governed.index gov in
      fun () ->
        let c = ctx.regs.(ci) in
        let k = bound - c in
        let k = if k < 0 then 0 else if k > lanes then lanes else k in
        ctx.counts.(gi) <- k;
        ctx.flags <- Flags.of_compare c bound;
        ctx.e_nacc <- 0
  | Governed.Step { gov = Governed.Pred; dst } ->
      let di = Reg.index dst in
      fun () ->
        ctx.regs.(di) <- Word.add ctx.regs.(di) lanes;
        ctx.e_nacc <- 0
  | Governed.Step { gov = Governed.Vl as gov; dst } ->
      let di = Reg.index dst in
      let gi = Governed.index gov in
      fun () ->
        ctx.regs.(di) <- Word.add ctx.regs.(di) ctx.counts.(gi);
        ctx.e_nacc <- 0
  | Governed.Op { gov; v } ->
      let gi = Governed.index gov in
      let full = compile_vector ctx ~lanes v in
      fun () ->
        let k = ctx.counts.(gi) in
        if k >= lanes then begin
          ctx.n_pred_fast <- ctx.n_pred_fast + 1;
          full ()
        end
        else begin
          ctx.n_pred_masked <- ctx.n_pred_masked + 1;
          clear_effect ctx;
          exec_vector_masked ctx ~k v
        end
  | Governed.Tblidx _ ->
      fun () ->
        ctx.n_tbl_builds <- ctx.n_tbl_builds + 1;
        ctx.e_nacc <- 0
  | Governed.Tbl { gov; esize; signed; dst; base; counter; pattern } ->
      let bytes = Esize.bytes esize in
      let gi = Governed.index gov in
      let ci = Reg.index counter in
      let d = ctx.vregs.(Vreg.index dst) in
      let getb = compile_base ctx base in
      (* [period] is a power of two ([Perm.well_formed]), so the modulo
         in [Perm.src_index] becomes a mask over the baked offsets. *)
      let offs = Perm.offsets pattern in
      let mask = Perm.period pattern - 1 in
      fun () ->
        let k = ctx.counts.(gi) in
        let k = if k > lanes then lanes else k in
        if k >= lanes then ctx.n_pred_fast <- ctx.n_pred_fast + 1
        else ctx.n_pred_masked <- ctx.n_pred_masked + 1;
        let base_addr = getb () in
        let c = ctx.regs.(ci) in
        for j = 0 to k - 1 do
          let e = c + j in
          let addr = base_addr + ((e + offs.(e land mask)) * bytes) in
          d.(j) <- Memory.read ctx.mem ~addr ~bytes ~signed;
          set_access ctx j addr bytes false
        done;
        ctx.e_nacc <- k;
        if k < lanes then Array.fill d k (lanes - k) 0
  | Governed.Tblst { gov; esize; src; base; counter; pattern } ->
      let bytes = Esize.bytes esize in
      let gi = Governed.index gov in
      let ci = Reg.index counter in
      let s = ctx.vregs.(Vreg.index src) in
      let getb = compile_base ctx base in
      let offs = Perm.offsets pattern in
      let mask = Perm.period pattern - 1 in
      fun () ->
        let k = ctx.counts.(gi) in
        let k = if k > lanes then lanes else k in
        if k >= lanes then ctx.n_pred_fast <- ctx.n_pred_fast + 1
        else ctx.n_pred_masked <- ctx.n_pred_masked + 1;
        let base_addr = getb () in
        let c = ctx.regs.(ci) in
        for j = 0 to k - 1 do
          let e = c + j in
          let addr = base_addr + ((e + offs.(e land mask)) * bytes) in
          Memory.write ctx.mem ~addr ~bytes s.(j);
          set_access ctx j addr bytes true
        done;
        ctx.e_nacc <- k
