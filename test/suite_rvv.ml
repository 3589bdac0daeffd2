(* The RVV-style stripmined backend.

   Five layers are under test: the vector-length grant semantics
   ([Sem.exec_governed] against a hand-built context), LMUL register-group
   selection ([Backend.S.register_group] directly and through the
   translated microcode's width), the translation structure (a vsetvl
   request-grant loop whose back-edge is the last uop before [ret] —
   nothing after the vector loop, no masks on the main path), the
   end-to-end claim of the backend (a trip count that is not a multiple
   of the lane width executes with zero scalar-epilogue iterations, the
   final trip running under a shortened grant), permutation recovery
   (fixed cross-lane patterns lower to grant-governed table lookups),
   and the scalar-equivalence oracle across all fifteen workloads at
   every paper width. *)

open Liquid_isa
open Liquid_prog
open Liquid_visa
open Liquid_pipeline
open Liquid_scalarize
open Liquid_translate
open Liquid_harness
open Liquid_workloads
open Helpers
module Memory = Liquid_machine.Memory
module Stats = Liquid_machine.Stats
module Oracle = Liquid_faults.Oracle

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* --- vsetvl grant semantics --- *)

let vl_slot = Governed.index Governed.Vl

let rvv_ctx ~lanes =
  let c = Sem.create_ctx (Memory.create ()) in
  c.Sem.lanes <- lanes;
  c

let vsetvl c ~counter ~bound =
  c.Sem.regs.(0) <- counter;
  Sem.exec_governed c (Governed.Set { gov = Governed.Vl; counter = r 0; bound })

let test_vsetvl () =
  let c = rvv_ctx ~lanes:4 in
  vsetvl c ~counter:0 ~bound:15;
  check "full grant" 4 c.Sem.counts.(vl_slot);
  check_bool "continue flag" true (Flags.lt c.Sem.flags);
  vsetvl c ~counter:12 ~bound:15;
  check "shortened final grant" 3 c.Sem.counts.(vl_slot);
  check_bool "still continuing" true (Flags.lt c.Sem.flags);
  vsetvl c ~counter:16 ~bound:15;
  check "overshoot grants zero" 0 c.Sem.counts.(vl_slot);
  check_bool "loop exits" false (Flags.lt c.Sem.flags);
  vsetvl c ~counter:15 ~bound:15;
  check "exact end grants zero" 0 c.Sem.counts.(vl_slot);
  check_bool "equality exits too" false (Flags.lt c.Sem.flags)

let test_addvl () =
  let c = rvv_ctx ~lanes:4 in
  vsetvl c ~counter:0 ~bound:15;
  c.Sem.regs.(3) <- 12;
  Sem.exec_governed c (Governed.Step { gov = Governed.Vl; dst = r 3 });
  check "advanced by the full grant" 16 c.Sem.regs.(3);
  (* The final trip advances by the shortened grant, landing the
     counter exactly on the bound — the defining difference from a
     fixed-step increment. *)
  vsetvl c ~counter:12 ~bound:15;
  c.Sem.regs.(3) <- 12;
  Sem.exec_governed c (Governed.Step { gov = Governed.Vl; dst = r 3 });
  check "advanced by the shortened grant" 15 c.Sem.regs.(3)

let vl v = Governed.Op { gov = Governed.Vl; v }

let test_vl_dp_tail_zeroing () =
  let c = rvv_ctx ~lanes:4 in
  Array.blit [| 1; 2; 3; 4 |] 0 c.Sem.vregs.(1) 0 4;
  Array.fill c.Sem.vregs.(2) 0 4 99;
  c.Sem.counts.(vl_slot) <- 2;
  Sem.exec_governed c
    (vl (Vinsn.Vdp { op = Opcode.Add; dst = v 2; src1 = v 1; src2 = VR (v 1) }));
  check "granted lane 0" 2 c.Sem.vregs.(2).(0);
  check "granted lane 1" 4 c.Sem.vregs.(2).(1);
  check "tail lane zeroed" 0 c.Sem.vregs.(2).(2);
  check "tail lane zeroed (last)" 0 c.Sem.vregs.(2).(3);
  check "masked path counted" 1 c.Sem.n_pred_masked;
  (* A full grant must behave exactly like the unmasked op. *)
  c.Sem.counts.(vl_slot) <- 4;
  Sem.exec_governed c
    (vl (Vinsn.Vdp { op = Opcode.Mul; dst = v 2; src1 = v 1; src2 = VImm 3 }));
  check "full grant lane 3" 12 c.Sem.vregs.(2).(3);
  check "all-true fast path counted" 1 c.Sem.n_pred_fast

let test_vl_load_store () =
  let c = rvv_ctx ~lanes:4 in
  for i = 0 to 3 do
    Memory.write c.Sem.mem ~addr:(0x5000 + (i * 4)) ~bytes:4 (100 + i)
  done;
  c.Sem.regs.(0) <- 0;
  c.Sem.counts.(vl_slot) <- 3;
  Sem.exec_governed c
    (vl
       (Vinsn.Vld
          { esize = Esize.Word; signed = true; dst = v 1; base = Insn.Sym 0x5000; index = r 0 }));
  check "lane 0 loaded" 100 c.Sem.vregs.(1).(0);
  check "lane 2 loaded" 102 c.Sem.vregs.(1).(2);
  check "tail lane zeroed" 0 c.Sem.vregs.(1).(3);
  (let eff = Sem.last_effect c in
   match eff.Sem.accesses with
   | [ { Sem.bytes; _ } ] -> check "granted access bytes" 12 bytes
   | _ -> Alcotest.fail "expected one access");
  (* Shortened store: the lane past the grant must not reach memory. *)
  Memory.write c.Sem.mem ~addr:(0x6000 + 8) ~bytes:4 (-1);
  c.Sem.counts.(vl_slot) <- 2;
  Array.blit [| 7; 8; 9; 10 |] 0 c.Sem.vregs.(1) 0 4;
  Sem.exec_governed c
    (vl (Vinsn.Vst { esize = Esize.Word; src = v 1; base = Insn.Sym 0x6000; index = r 0 }));
  check "granted lane stored" 7
    (Memory.read c.Sem.mem ~addr:0x6000 ~bytes:4 ~signed:true);
  check "second granted lane stored" 8
    (Memory.read c.Sem.mem ~addr:0x6004 ~bytes:4 ~signed:true);
  check "tail lane untouched" (-1)
    (Memory.read c.Sem.mem ~addr:(0x6000 + 8) ~bytes:4 ~signed:true)

let test_vl_reduction () =
  let c = rvv_ctx ~lanes:4 in
  Array.blit [| 1; 2; 3; 4 |] 0 c.Sem.vregs.(1) 0 4;
  c.Sem.regs.(5) <- 100;
  c.Sem.counts.(vl_slot) <- 3;
  Sem.exec_governed c (vl (Vinsn.Vred { op = Opcode.Add; acc = r 5; src = v 1 }));
  check "folds granted lanes only" 106 c.Sem.regs.(5);
  c.Sem.counts.(vl_slot) <- 0;
  Sem.exec_governed c (vl (Vinsn.Vred { op = Opcode.Add; acc = r 5; src = v 1 }));
  check "zero grant is a no-op" 106 c.Sem.regs.(5)

(* --- LMUL register-group selection --- *)

let register_group backend =
  let module B = (val backend : Backend.S) in
  B.register_group

let test_register_group () =
  let rvv = register_group Backend.rvv in
  (* Narrow datapath, light pressure: the full m8 group fits both the
     16-element maximum vector length and the 16-entry vector file. *)
  check "2 lanes, pressure 2" 8 (rvv ~lanes:2 ~pressure:2);
  check "4 lanes, pressure 2" 4 (rvv ~lanes:4 ~pressure:2);
  check "8 lanes, pressure 2" 2 (rvv ~lanes:8 ~pressure:2);
  (* The maximum vector length caps the group before pressure does. *)
  check "16 lanes cannot group" 1 (rvv ~lanes:16 ~pressure:1);
  (* Pressure caps the group before the vector length does: grouping
     multiplies every live value's register footprint. *)
  check "pressure 3 fits m4" 4 (rvv ~lanes:2 ~pressure:3);
  check "pressure 5 fits m2" 2 (rvv ~lanes:2 ~pressure:5);
  check "full file cannot group" 1 (rvv ~lanes:2 ~pressure:16);
  (* A region with no live vector values grades as pressure 1. *)
  check "zero pressure clamps to 1" 8 (rvv ~lanes:2 ~pressure:0);
  (* The other backends never group. *)
  check "fixed never groups" 1 (register_group Backend.fixed ~lanes:2 ~pressure:1);
  check "vla never groups" 1 (register_group Backend.vla ~lanes:2 ~pressure:1)

(* --- translation structure: the FIR-15 loop --- *)

(* c[i] = 5*a[i] + 3*b[i] over 15 elements: a trip count no fixed width
   in 2..16 divides, the motivating case for grant shortening. *)
let fir15_count = 15

let fir15_loop =
  let open Build in
  {
    Vloop.name = "fir15";
    count = fir15_count;
    body =
      [
        vld (v 1) "a";
        vmul (v 1) (v 1) (vi 5);
        vld (v 2) "b";
        vmul (v 2) (v 2) (vi 3);
        vadd (v 1) (v 1) (vr (v 2));
        vst (v 1) "c";
      ];
    reductions = [];
  }

let fir15_data () =
  [
    Data.make ~name:"a" ~esize:Esize.Word
      (words fir15_count (fun i -> (i * 7) - 20));
    Data.make ~name:"b" ~esize:Esize.Word
      (words fir15_count (fun i -> 11 - (i * 3)));
    Data.make ~name:"c" ~esize:Esize.Word (words fir15_count (fun _ -> 0));
  ]

let fir15_expected =
  words fir15_count (fun i -> (5 * ((i * 7) - 20)) + (3 * (11 - (i * 3))))

let fir15_translate ~lanes =
  let prog =
    Codegen.liquid (simple_program ~name:"fir15" ~data:(fir15_data ()) fir15_loop)
  in
  let image = Image.of_program prog in
  let entry =
    match image.Image.region_entries with
    | [ (e, _) ] -> e
    | _ -> Alcotest.fail "expected one region"
  in
  Offline.translate_region ~backend:Backend.rvv ~image ~lanes ~entry ()

let test_rvv_translation_structure () =
  let u =
    match fir15_translate ~lanes:4 with
    | Translator.Translated u -> u
    | Translator.Aborted a ->
        Alcotest.failf "RVV backend aborted: %s" (Abort.to_string a)
  in
  check_bool "marked as RVV microcode" true (u.Ucode.kind = Ucode.Rvv);
  check_bool "not marked as VLA microcode" false (u.Ucode.kind = Ucode.Vla);
  (* Two live vector values at 4 base lanes grade an m4 group: the
     effective translation width is the full 16-element maximum. *)
  check "LMUL group factor" 4 u.Ucode.lmul;
  check "grouped width" 16 u.Ucode.width;
  let uops = Array.to_list u.Ucode.uops in
  let count p = List.length (List.filter p uops) in
  check "one header + one loop-end vsetvl" 2
    (count (function Ucode.UG (Governed.Set { gov = Governed.Vl; _ }) -> true | _ -> false));
  check "one grant-sized induction advance" 1
    (count (function Ucode.UG (Governed.Step { gov = Governed.Vl; _ }) -> true | _ -> false));
  check "every body op under the grant" 6
    (count (function Ucode.UG (Governed.Op { gov = Governed.Vl; _ }) -> true | _ -> false));
  check "no unguarded vector ops" 0
    (count (function Ucode.UV _ -> true | _ -> false));
  check "no predicate machinery" 0
    (count (function
       | Ucode.UG
           ( Governed.Set { gov = Governed.Pred; _ }
           | Governed.Op { gov = Governed.Pred; _ }
           | Governed.Step { gov = Governed.Pred; _ }
           | Governed.Tblidx { gov = Governed.Pred; _ }
           | Governed.Tbl { gov = Governed.Pred; _ }
           | Governed.Tblst { gov = Governed.Pred; _ } ) ->
           true
       | _ -> false));
  (* Zero scalar-epilogue structure: the back-edge is the last uop
     before [ret] — nothing runs after the vector loop. *)
  let n = Array.length u.Ucode.uops in
  check_bool "ret terminates" true (u.Ucode.uops.(n - 1) = Ucode.URet);
  (match u.Ucode.uops.(n - 2) with
  | Ucode.UB { cond = Cond.Lt; target } ->
      (* ...and the back-edge re-enters after the header vsetvl, which
         runs exactly once. *)
      (match u.Ucode.uops.(target - 1) with
      | Ucode.UG (Governed.Set { gov = Governed.Vl; _ }) -> ()
      | _ -> Alcotest.fail "back-edge target not after the header vsetvl")
  | _ -> Alcotest.fail "expected the loop back-edge right before ret");
  (* The loop-end vsetvl must renew the grant and the flags before the
     back-edge tests them. *)
  match u.Ucode.uops.(n - 3) with
  | Ucode.UG (Governed.Set { gov = Governed.Vl; _ }) -> ()
  | _ -> Alcotest.fail "expected the loop-end vsetvl before the back-edge"

(* --- end-to-end: shortened final grant, bit-identical state --- *)

let test_zero_scalar_epilogue () =
  let frames = 4 in
  let vprog =
    simple_program ~name:"fir15" ~frames ~data:(fir15_data ()) fir15_loop
  in
  let liquid = Codegen.liquid vprog in
  let image = Image.of_program liquid in
  let lanes = 4 in
  let config =
    {
      (Cpu.liquid_config ~lanes) with
      Cpu.backend = Backend.rvv;
      Cpu.oracle_translation = true;
    }
  in
  let run = Cpu.run ~config image in
  (* Every call is served from the microcode cache, so no region
     instruction executes in scalar form at all. *)
  check "all calls in microcode" run.Cpu.stats.Stats.region_calls
    run.Cpu.stats.Stats.ucode_hits;
  check "region calls" frames run.Cpu.stats.Stats.region_calls;
  (* The m4 group covers all 15 trips in a single stripmine iteration
     under a 15-element grant: 1 x 6 grant-governed ops per frame, and
     the 15-of-16 shortened grant replaces any scalar epilogue. *)
  check "grant-governed vector work only" (frames * 6)
    run.Cpu.stats.Stats.vector_insns;
  (match run.Cpu.regions with
  | [ { Cpu.outcome = Cpu.R_installed { width; _ }; _ } ] ->
      check "installed at the grouped width" 16 width
  | _ -> Alcotest.fail "expected one installed region");
  check_arrays "rvv result" fir15_expected (read_array run liquid "c");
  (* Memory bit-identical to the same binary stepped in pure scalar
     form. (Unlike VLA's next-multiple-of-VL overshoot, the RVV counter
     lands exactly on the bound — [Step] advances by the shortened
     grant.) *)
  let scalar = run_image liquid in
  check_memory_equal "rvv vs scalar" run scalar;
  (* Contrast: the fixed-width machine cannot translate 15 trips at any
     width, so the same binary does zero vector work there. *)
  let fixed_run =
    Cpu.run ~config:{ config with Cpu.backend = Backend.fixed } image
  in
  check "fixed backend falls back to scalar" 0
    fixed_run.Cpu.stats.Stats.vector_insns;
  check_memory_equal "fixed fallback still exact" fixed_run scalar

(* --- table-lookup semantics under the grant: Tblidx / Tbl / Tblst --- *)

let test_tbl_exec () =
  let c = rvv_ctx ~lanes:4 in
  for j = 0 to 7 do
    Memory.write c.Sem.mem ~addr:(0x7000 + (4 * j)) ~bytes:4 (10 * j)
  done;
  c.Sem.regs.(0) <- 2;
  c.Sem.counts.(vl_slot) <- 4;
  let tbl dst =
    Governed.Tbl
      {
        gov = Governed.Vl;
        esize = Esize.Word;
        signed = true;
        dst;
        base = Insn.Sym 0x7000;
        counter = r 0;
        pattern = Perm.pairswap;
      }
  in
  Sem.exec_governed c (tbl (v 1));
  (* lane j reads element src_index pairswap (2+j) = 3, 2, 5, 4 *)
  check "lane 0" 30 c.Sem.vregs.(1).(0);
  check "lane 1" 20 c.Sem.vregs.(1).(1);
  check "lane 2" 50 c.Sem.vregs.(1).(2);
  check "lane 3" 40 c.Sem.vregs.(1).(3);
  check "full-grant fast path counted" 1 c.Sem.n_pred_fast;
  (* Shortened final grant: tail lanes load nothing and zero. *)
  Array.fill c.Sem.vregs.(2) 0 4 99;
  c.Sem.counts.(vl_slot) <- 2;
  Sem.exec_governed c (tbl (v 2));
  check "tail lane 0" 30 c.Sem.vregs.(2).(0);
  check "tail lane 1" 20 c.Sem.vregs.(2).(1);
  check "tail lane zeroed" 0 c.Sem.vregs.(2).(2);
  check "tail lane zeroed (last)" 0 c.Sem.vregs.(2).(3);
  check "masked path counted" 1 c.Sem.n_pred_masked

let test_tblst_exec () =
  let c = rvv_ctx ~lanes:4 in
  for j = 0 to 3 do
    Memory.write c.Sem.mem ~addr:(0x6100 + (4 * j)) ~bytes:4 (-1)
  done;
  Array.blit [| 7; 8; 9; 10 |] 0 c.Sem.vregs.(1) 0 4;
  c.Sem.regs.(0) <- 0;
  c.Sem.counts.(vl_slot) <- 3;
  Sem.exec_governed c
    (Governed.Tblst
       {
         gov = Governed.Vl;
         esize = Esize.Word;
         src = v 1;
         base = Insn.Sym 0x6100;
         counter = r 0;
         pattern = Perm.pairswap;
       });
  (* lane j writes element src_index pairswap j = 1, 0, 3; lane 3 is
     past the grant, so element 2 keeps its sentinel *)
  let rd e = Memory.read c.Sem.mem ~addr:(0x6100 + (4 * e)) ~bytes:4 ~signed:true in
  check "element 0" 8 (rd 0);
  check "element 1" 7 (rd 1);
  check "ungranted element untouched" (-1) (rd 2);
  check "element 3" 9 (rd 3)

let test_tblidx () =
  let c = rvv_ctx ~lanes:8 in
  check "no builds yet" 0 c.Sem.n_tbl_builds;
  Sem.exec_governed c (Governed.Tblidx { gov = Governed.Vl; pattern = Perm.Reverse 4 });
  Sem.exec_governed c (Governed.Tblidx { gov = Governed.Vl; pattern = Perm.pairswap });
  check "each build counted" 2 c.Sem.n_tbl_builds;
  let eff = Sem.last_effect c in
  check "no memory traffic" 0 (List.length eff.Sem.accesses)

(* --- permutations recover as table lookups --- *)

let pairswap_data ~count =
  let offs = Perm.offsets Perm.pairswap in
  [
    Data.make ~name:"off" ~esize:Esize.Word
      (words count (fun e -> offs.(e mod Array.length offs)));
    Data.make ~name:"a" ~esize:Esize.Word (words count (fun i -> 100 + i));
    Data.make ~name:"c" ~esize:Esize.Word (words count (fun _ -> 0));
  ]

let pairswap_items ~count ~scatter =
  let open Build in
  let ind = Vloop.induction in
  let body =
    if scatter then
      [
        ld (r 1) "a" (ri ind);
        ld (r 13) "off" (ri ind);
        dp Opcode.Add (r 13) ind (ri (r 13));
        st (r 1) "c" (ri (r 13));
      ]
    else
      [
        ld (r 13) "off" (ri ind);
        dp Opcode.Add (r 13) ind (ri (r 13));
        ld (r 1) "a" (ri (r 13));
        st (r 1) "c" (ri ind);
      ]
  in
  [ mov ind 0; label "f_top" ]
  @ body
  @ [ addi ind ind 1; cmp ind (i count); b ~cond:Cond.Lt "f_top" ]

let count_uops p (u : Ucode.t) =
  Array.fold_left (fun n uop -> if p uop then n + 1 else n) 0 u.Ucode.uops

let test_perm_recovery_structure () =
  let data = pairswap_data ~count:16 in
  let items = pairswap_items ~count:16 ~scatter:false in
  List.iter
    (fun lanes ->
      let u =
        match translate_items ~lanes ~backend:Backend.rvv ~data items with
        | Liquid_translate.Translator.Translated u -> u
        | Liquid_translate.Translator.Aborted a ->
            Alcotest.failf "RVV aborted at %d lanes: %s" lanes
              (Abort.to_string a)
      in
      check "one index-table build" 1
        (count_uops (function Ucode.UG (Governed.Tblidx { gov = Governed.Vl; _ }) -> true | _ -> false) u);
      check "one table-lookup gather" 1
        (count_uops (function Ucode.UG (Governed.Tbl { gov = Governed.Vl; _ }) -> true | _ -> false) u);
      check "no register permute" 0
        (count_uops
           (function
             | Ucode.UV (Vinsn.Vperm _) | Ucode.UG (Governed.Op { gov = Governed.Vl; v = Vinsn.Vperm _ })
               ->
                 true
             | _ -> false)
           u);
      (* Both the offset-array load and the partner data load collapse
         into the table lookup — the alignment-network collapse. *)
      check "no residual vector load" 0
        (count_uops
           (function Ucode.UG (Governed.Op { gov = Governed.Vl; v = Vinsn.Vld _ }) -> true | _ -> false)
           u);
      (* The index-table build runs once per call: it precedes the
         header vsetvl, and the back-edge re-enters after both. *)
      let target =
        match u.Ucode.uops.(Array.length u.Ucode.uops - 2) with
        | Ucode.UB { cond = Cond.Lt; target } -> target
        | _ -> Alcotest.fail "expected the loop back-edge right before ret"
      in
      (match u.Ucode.uops.(target - 1) with
      | Ucode.UG (Governed.Set { gov = Governed.Vl; _ }) -> ()
      | _ -> Alcotest.fail "back-edge target not after the header vsetvl");
      (match u.Ucode.uops.(target - 2) with
      | Ucode.UG (Governed.Tblidx { gov = Governed.Vl; _ }) -> ()
      | _ -> Alcotest.fail "index-table build not before the header");
      (* The baked pattern is protected by per-trip offset guards, so a
         mutated offset array drops the microcode instead of replaying a
         stale permutation. *)
      check "per-trip offset guards" 16 (Array.length u.Ucode.guards))
    [ 2; 4; 8; 16 ]

let test_perm_scatter_recovery () =
  let data = pairswap_data ~count:16 in
  let items = pairswap_items ~count:16 ~scatter:true in
  let u =
    match translate_items ~lanes:4 ~backend:Backend.rvv ~data items with
    | Liquid_translate.Translator.Translated u -> u
    | Liquid_translate.Translator.Aborted a ->
        Alcotest.failf "RVV aborted on scatter: %s" (Abort.to_string a)
  in
  check "one table-lookup scatter" 1
    (count_uops (function Ucode.UG (Governed.Tblst { gov = Governed.Vl; _ }) -> true | _ -> false) u);
  check "no residual vector store" 0
    (count_uops
       (function Ucode.UG (Governed.Op { gov = Governed.Vl; v = Vinsn.Vst _ }) -> true | _ -> false)
       u)

(* End-to-end at a trip count no fixed width divides: the recovered
   table lookup reproduces the scalar stream bit-exactly at every
   hardware width, shortened final grant included. *)
let test_perm_recovery_executes () =
  let count = 14 in
  List.iter
    (fun scatter ->
      let prog =
        let open Build in
        Program.make ~name:"permrec"
          ~text:
            ((Program.Label "main" :: bl_region "f" :: [ halt ])
            @ (Program.Label "f" :: pairswap_items ~count ~scatter)
            @ [ ret ])
          ~data:(pairswap_data ~count)
      in
      let scalar = run_image prog in
      let expected = read_array scalar prog "c" in
      List.iter
        (fun lanes ->
          let config =
            {
              (Cpu.liquid_config ~lanes) with
              Cpu.backend = Backend.rvv;
              Cpu.oracle_translation = true;
            }
          in
          let run = run_image ~config prog in
          check_arrays
            (Printf.sprintf "scatter=%b lanes=%d" scatter lanes)
            expected (read_array run prog "c");
          check "call served from microcode" run.Cpu.stats.Stats.region_calls
            run.Cpu.stats.Stats.ucode_hits;
          check "permutation seen" 1 run.Cpu.permutes_seen;
          check "permutation recovered" 1 run.Cpu.permutes_recovered;
          check "no permutation aborted" 0 run.Cpu.permutes_aborted;
          check "one index table built per call" 1 run.Cpu.tbl_index_builds)
        [ 2; 4; 8; 16 ])
    [ false; true ]

(* A genuinely data-dependent shuffle — the offset array is written
   inside the loop, so no index vector baked at translation time can be
   proven to stay correct — is the one shape that still aborts. *)
let test_data_dependent_still_aborts () =
  let open Build in
  let ind = Vloop.induction in
  let data = pairswap_data ~count:16 in
  let items =
    [ mov ind 0; label "f_top" ]
    @ [
        ld (r 13) "off" (ri ind);
        dp Opcode.Add (r 13) ind (ri (r 13));
        ld (r 1) "a" (ri (r 13));
        st (r 1) "c" (ri ind);
        st (r 1) "off" (ri ind);
      ]
    @ [ addi ind ind 1; cmp ind (i 16); b ~cond:Cond.Lt "f_top" ]
  in
  expect_abort ~lanes:4 ~backend:Backend.rvv ~data items
    (fun a -> a = Abort.Unportable_permutation)
    "data-dependent shuffle under RVV"

(* The FFT workload leans on butterflies: under the RVV backend every
   permuting region recovers as a table lookup, and the low-pressure
   regions additionally grade an LMUL group — on 8-lane hardware some
   regions install 16-wide (m2) microcode while the register-hungry
   ones stay at the base width. *)
let test_fft_recovers_and_groups () =
  let w = Option.get (Workload.find "FFT") in
  let { Runner.run; program; _ } = Runner.run_cached w (Runner.Liquid_rvv 8) in
  let image = Image.of_program program in
  check_bool "no region fails permanently" true
    (List.for_all
       (fun (reg : Cpu.region_report) ->
         match reg.Cpu.outcome with Cpu.R_failed _ -> false | _ -> true)
       run.Cpu.regions);
  check "no translation aborts" 0 run.Cpu.stats.Stats.translations_aborted;
  check_bool "butterflies recovered" true (run.Cpu.permutes_recovered > 0);
  check "no permutation aborted" 0 run.Cpu.permutes_aborted;
  check_bool "index tables built" true (run.Cpu.tbl_index_builds > 0);
  let widths =
    List.filter_map
      (fun (reg : Cpu.region_report) ->
        match reg.Cpu.outcome with
        | Cpu.R_installed { width; _ } -> Some width
        | _ -> None)
      run.Cpu.regions
  in
  check_bool "some region grouped to 16-wide (m2)" true
    (List.mem 16 widths);
  check_bool "register-hungry region stays at base width" true
    (List.mem 8 widths);
  check_bool "oracle equivalence" true (Oracle.equivalent w image run)

(* --- scalar-equivalence oracle, all workloads x all widths --- *)

let test_oracle_equivalence (w : Workload.t) () =
  List.iter
    (fun width ->
      let { Runner.run; program; _ } =
        Runner.run_cached w (Runner.Liquid_rvv width)
      in
      let image = Image.of_program program in
      match Oracle.check w image run with
      | Ok () -> ()
      | Error m ->
          Alcotest.failf "w%d diverged from scalar: %a" width Oracle.pp_mismatch
            m)
    [ 2; 4; 8; 16 ]

let tests =
  [
    Alcotest.test_case "vsetvl request-grant pair" `Quick test_vsetvl;
    Alcotest.test_case "addvl advances by the grant" `Quick test_addvl;
    Alcotest.test_case "granted dp zeroes tail lanes" `Quick
      test_vl_dp_tail_zeroing;
    Alcotest.test_case "granted load/store touch granted lanes" `Quick
      test_vl_load_store;
    Alcotest.test_case "granted reduction folds granted lanes" `Quick
      test_vl_reduction;
    Alcotest.test_case "lmul register-group selection" `Quick
      test_register_group;
    Alcotest.test_case "rvv translation structure" `Quick
      test_rvv_translation_structure;
    Alcotest.test_case "zero scalar-epilogue iterations" `Quick
      test_zero_scalar_epilogue;
    Alcotest.test_case "tbl gather semantics" `Quick test_tbl_exec;
    Alcotest.test_case "tblst scatter semantics" `Quick test_tblst_exec;
    Alcotest.test_case "tblidx counts index builds" `Quick test_tblidx;
    Alcotest.test_case "permutation recovers as table lookup" `Quick
      test_perm_recovery_structure;
    Alcotest.test_case "store-side permutation recovers" `Quick
      test_perm_scatter_recovery;
    Alcotest.test_case "recovered permutes execute bit-exactly" `Quick
      test_perm_recovery_executes;
    Alcotest.test_case "data-dependent shuffle still aborts" `Quick
      test_data_dependent_still_aborts;
    Alcotest.test_case "FFT recovers and groups under RVV" `Quick
      test_fft_recovers_and_groups;
  ]
  @ List.map
      (fun (w : Workload.t) ->
        Alcotest.test_case
          (Printf.sprintf "oracle equivalence %s" w.Workload.name)
          `Quick (test_oracle_equivalence w))
      (Workload.all ())
