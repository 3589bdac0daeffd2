(* The vector-length-agnostic (SVE-style) backend.

   Five layers are under test: the predicate semantics ([Sem.exec_governed]
   against a hand-built context), the translation structure (a whilelt
   loop with a predicated final iteration and nothing after the
   back-edge), the end-to-end claim of the backend (a trip count that is
   not a multiple of the lane width executes with zero scalar-epilogue
   iterations, bit-identical to scalar), permutation recovery (fixed
   cross-lane patterns lower to runtime-indexed table lookups instead of
   aborting), and the scalar-equivalence oracle across all fifteen
   workloads at every paper width. *)

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

(* --- predicate semantics --- *)

let p0 = Governed.index Governed.Pred

let vla_ctx ~lanes =
  let c = Sem.create_ctx (Memory.create ()) in
  c.Sem.lanes <- lanes;
  c

let whilelt c ~counter ~bound =
  c.Sem.regs.(0) <- counter;
  Sem.exec_governed c (Governed.Set { gov = Governed.Pred; counter = r 0; bound })

let test_whilelt () =
  let c = vla_ctx ~lanes:4 in
  whilelt c ~counter:0 ~bound:15;
  check "full predicate" 4 c.Sem.counts.(p0);
  check_bool "continue flag" true (Flags.lt c.Sem.flags);
  whilelt c ~counter:12 ~bound:15;
  check "partial tail" 3 c.Sem.counts.(p0);
  check_bool "still continuing" true (Flags.lt c.Sem.flags);
  whilelt c ~counter:16 ~bound:15;
  check "overshoot empty" 0 c.Sem.counts.(p0);
  check_bool "loop exits" false (Flags.lt c.Sem.flags);
  whilelt c ~counter:15 ~bound:15;
  check "exact end empty" 0 c.Sem.counts.(p0);
  check_bool "equality exits too" false (Flags.lt c.Sem.flags)

let test_incvl () =
  let c = vla_ctx ~lanes:4 in
  c.Sem.regs.(3) <- 12;
  Sem.exec_governed c (Governed.Step { gov = Governed.Pred; dst = r 3 });
  check "advanced by VL" 16 c.Sem.regs.(3);
  c.Sem.lanes <- 8;
  Sem.exec_governed c (Governed.Step { gov = Governed.Pred; dst = r 3 });
  check "tracks the active width" 24 c.Sem.regs.(3)

let pred v = Governed.Op { gov = Governed.Pred; v }

let test_pred_dp_zeroing () =
  let c = vla_ctx ~lanes:4 in
  Array.blit [| 1; 2; 3; 4 |] 0 c.Sem.vregs.(1) 0 4;
  Array.fill c.Sem.vregs.(2) 0 4 99;
  c.Sem.counts.(p0) <- 2;
  Sem.exec_governed c
    (pred (Vinsn.Vdp { op = Opcode.Add; dst = v 2; src1 = v 1; src2 = VR (v 1) }));
  check "active lane 0" 2 c.Sem.vregs.(2).(0);
  check "active lane 1" 4 c.Sem.vregs.(2).(1);
  check "inactive lane zeroed" 0 c.Sem.vregs.(2).(2);
  check "inactive lane zeroed (last)" 0 c.Sem.vregs.(2).(3);
  (* A full predicate must behave exactly like the unpredicated op. *)
  c.Sem.counts.(p0) <- 4;
  Sem.exec_governed c
    (pred (Vinsn.Vdp { op = Opcode.Mul; dst = v 2; src1 = v 1; src2 = VImm 3 }));
  check "full predicate lane 3" 12 c.Sem.vregs.(2).(3)

let test_pred_load_store () =
  let c = vla_ctx ~lanes:4 in
  for i = 0 to 3 do
    Memory.write c.Sem.mem ~addr:(0x5000 + (i * 4)) ~bytes:4 (100 + i)
  done;
  c.Sem.regs.(0) <- 0;
  c.Sem.counts.(p0) <- 3;
  Sem.exec_governed c
    (pred
       (Vinsn.Vld
          { esize = Esize.Word; signed = true; dst = v 1; base = Insn.Sym 0x5000; index = r 0 }));
  check "lane 0 loaded" 100 c.Sem.vregs.(1).(0);
  check "lane 2 loaded" 102 c.Sem.vregs.(1).(2);
  check "inactive lane zeroed" 0 c.Sem.vregs.(1).(3);
  (let eff = Sem.last_effect c in
   match eff.Sem.accesses with
   | [ { Sem.bytes; _ } ] -> check "partial access bytes" 12 bytes
   | _ -> Alcotest.fail "expected one access");
  (* Partial store: the lane past the predicate must not reach memory. *)
  Memory.write c.Sem.mem ~addr:(0x6000 + 8) ~bytes:4 (-1);
  c.Sem.counts.(p0) <- 2;
  Array.blit [| 7; 8; 9; 10 |] 0 c.Sem.vregs.(1) 0 4;
  Sem.exec_governed c
    (pred (Vinsn.Vst { esize = Esize.Word; src = v 1; base = Insn.Sym 0x6000; index = r 0 }));
  check "active lane stored" 7
    (Memory.read c.Sem.mem ~addr:0x6000 ~bytes:4 ~signed:true);
  check "second active lane stored" 8
    (Memory.read c.Sem.mem ~addr:0x6004 ~bytes:4 ~signed:true);
  check "inactive lane untouched" (-1)
    (Memory.read c.Sem.mem ~addr:(0x6000 + 8) ~bytes:4 ~signed:true)

let test_pred_reduction () =
  let c = vla_ctx ~lanes:4 in
  Array.blit [| 1; 2; 3; 4 |] 0 c.Sem.vregs.(1) 0 4;
  c.Sem.regs.(5) <- 100;
  c.Sem.counts.(p0) <- 3;
  Sem.exec_governed c (pred (Vinsn.Vred { op = Opcode.Add; acc = r 5; src = v 1 }));
  check "folds active lanes only" 106 c.Sem.regs.(5);
  c.Sem.counts.(p0) <- 0;
  Sem.exec_governed c (pred (Vinsn.Vred { op = Opcode.Add; acc = r 5; src = v 1 }));
  check "empty predicate is a no-op" 106 c.Sem.regs.(5)

let test_pred_permutation_sigill () =
  let c = vla_ctx ~lanes:4 in
  c.Sem.counts.(p0) <- 2;
  Alcotest.check_raises "predicated permutation refuses to execute"
    (Sem.Sigill "predicated permutation") (fun () ->
      Sem.exec_governed c
        (pred (Vinsn.Vperm { pattern = Perm.Reverse 4; dst = v 1; src = v 1 })))

(* --- translation structure: the FIR-15 loop --- *)

(* c[i] = 5*a[i] + 3*b[i] over 15 elements: a trip count no fixed width
   in 2..16 divides, the motivating case for the predicated epilogue. *)
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

let fir15_translate ~backend ~lanes =
  let prog =
    Codegen.liquid (simple_program ~name:"fir15" ~data:(fir15_data ()) fir15_loop)
  in
  let image = Image.of_program prog in
  let entry =
    match image.Image.region_entries with
    | [ (e, _) ] -> e
    | _ -> Alcotest.fail "expected one region"
  in
  Offline.translate_region ~backend ~image ~lanes ~entry ()

let test_fixed_backend_aborts () =
  List.iter
    (fun lanes ->
      match fir15_translate ~backend:Backend.fixed ~lanes with
      | Translator.Aborted Abort.Bad_trip_count -> ()
      | Translator.Aborted a ->
          Alcotest.failf "wrong abort at %d lanes: %s" lanes (Abort.to_string a)
      | Translator.Translated _ ->
          Alcotest.failf "fixed backend translated 15 trips at %d lanes" lanes)
    [ 2; 4; 8; 16 ]

let test_vla_translation_structure () =
  let u =
    match fir15_translate ~backend:Backend.vla ~lanes:4 with
    | Translator.Translated u -> u
    | Translator.Aborted a ->
        Alcotest.failf "VLA backend aborted: %s" (Abort.to_string a)
  in
  check_bool "marked as VLA microcode" true (u.Ucode.kind = Ucode.Vla);
  check "translated at the full lane count" 4 u.Ucode.width;
  let uops = Array.to_list u.Ucode.uops in
  let count p = List.length (List.filter p uops) in
  check "one header + one loop-end whilelt" 2
    (count (function Ucode.UG (Governed.Set { gov = Governed.Pred; _ }) -> true | _ -> false));
  check "one induction increment" 1
    (count (function Ucode.UG (Governed.Step { gov = Governed.Pred; _ }) -> true | _ -> false));
  check "every body op predicated" 6
    (count (function Ucode.UG (Governed.Op { gov = Governed.Pred; _ }) -> true | _ -> false));
  check "no unpredicated vector ops" 0
    (count (function Ucode.UV _ -> true | _ -> false));
  (* Zero scalar-epilogue structure: the back-edge is the last uop
     before [ret] — nothing runs after the vector loop. *)
  let n = Array.length u.Ucode.uops in
  check_bool "ret terminates" true (u.Ucode.uops.(n - 1) = Ucode.URet);
  (match u.Ucode.uops.(n - 2) with
  | Ucode.UB { cond = Cond.Lt; target } ->
      (* ...and the back-edge re-enters after the header whilelt, which
         runs exactly once. *)
      (match u.Ucode.uops.(target - 1) with
      | Ucode.UG (Governed.Set { gov = Governed.Pred; _ }) -> ()
      | _ -> Alcotest.fail "back-edge target not after the header whilelt")
  | _ -> Alcotest.fail "expected the loop back-edge right before ret");
  (* The loop-end whilelt must recompute the predicate before the
     back-edge tests the flags. *)
  match u.Ucode.uops.(n - 3) with
  | Ucode.UG (Governed.Set { gov = Governed.Pred; _ }) -> ()
  | _ -> Alcotest.fail "expected the loop-end whilelt before the back-edge"

(* --- end-to-end: predicated epilogue, bit-identical state --- *)

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
      Cpu.backend = Backend.vla;
      Cpu.oracle_translation = true;
    }
  in
  let run = Cpu.run ~config image in
  (* Every call is served from the microcode cache, so no region
     instruction executes in scalar form at all. *)
  check "all calls in microcode" run.Cpu.stats.Stats.region_calls
    run.Cpu.stats.Stats.ucode_hits;
  check "region calls" frames run.Cpu.stats.Stats.region_calls;
  (* ceil(15/4) = 4 vector iterations x 6 predicated ops per frame:
     the partial final iteration replaces 3 scalar-epilogue trips. *)
  check "predicated vector work only"
    (frames * 4 * 6)
    run.Cpu.stats.Stats.vector_insns;
  (match run.Cpu.regions with
  | [ { Cpu.outcome = Cpu.R_installed { width; _ }; _ } ] ->
      check "installed at the full lane count" lanes width
  | _ -> Alcotest.fail "expected one installed region");
  check_arrays "vla result" fir15_expected (read_array run liquid "c");
  (* Memory bit-identical to the same binary stepped in pure scalar
     form. (Registers are excluded here: the VLA counter legitimately
     ends at the next multiple of VL, 16 rather than 15 — the oracle's
     junk mask handles this for the real workloads below.) *)
  let scalar = run_image liquid in
  check_memory_equal "vla vs scalar" run scalar;
  (* Contrast: the fixed-width machine cannot translate 15 trips at any
     width, so the same binary does zero vector work there. *)
  let fixed_run =
    Cpu.run ~config:{ config with Cpu.backend = Backend.fixed } image
  in
  check "fixed backend falls back to scalar" 0
    fixed_run.Cpu.stats.Stats.vector_insns;
  check_memory_equal "fixed fallback still exact" fixed_run scalar

(* --- table-lookup semantics: Tblidx / Tbl / Tblst --- *)

(* [Tbl] lane [j] reads absolute element [src_index pattern (counter+j)]
   — exact at any width relative to the pattern period, mid-loop counter
   values included. *)
let test_tbl_exec () =
  let c = vla_ctx ~lanes:4 in
  for j = 0 to 7 do
    Memory.write c.Sem.mem ~addr:(0x7000 + (4 * j)) ~bytes:4 (10 * j)
  done;
  c.Sem.regs.(0) <- 2;
  c.Sem.counts.(p0) <- 4;
  let tbl dst =
    Governed.Tbl
      {
        gov = Governed.Pred;
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
  check "all-true fast path counted" 1 c.Sem.n_pred_fast;
  (* Predicated tail: lanes past the predicate load nothing and zero. *)
  Array.fill c.Sem.vregs.(2) 0 4 99;
  c.Sem.counts.(p0) <- 2;
  Sem.exec_governed c (tbl (v 2));
  check "tail lane 0" 30 c.Sem.vregs.(2).(0);
  check "tail lane 1" 20 c.Sem.vregs.(2).(1);
  check "inactive lane zeroed" 0 c.Sem.vregs.(2).(2);
  check "inactive lane zeroed (last)" 0 c.Sem.vregs.(2).(3);
  check "masked path counted" 1 c.Sem.n_pred_masked

let test_tblst_exec () =
  let c = vla_ctx ~lanes:4 in
  for j = 0 to 3 do
    Memory.write c.Sem.mem ~addr:(0x6100 + (4 * j)) ~bytes:4 (-1)
  done;
  Array.blit [| 7; 8; 9; 10 |] 0 c.Sem.vregs.(1) 0 4;
  c.Sem.regs.(0) <- 0;
  c.Sem.counts.(p0) <- 3;
  Sem.exec_governed c
    (Governed.Tblst
       {
         gov = Governed.Pred;
         esize = Esize.Word;
         src = v 1;
         base = Insn.Sym 0x6100;
         counter = r 0;
         pattern = Perm.pairswap;
       });
  (* lane j writes element src_index pairswap j = 1, 0, 3; lane 3 is
     inactive, so element 2 keeps its sentinel *)
  let rd e = Memory.read c.Sem.mem ~addr:(0x6100 + (4 * e)) ~bytes:4 ~signed:true in
  check "element 0" 8 (rd 0);
  check "element 1" 7 (rd 1);
  check "inactive element untouched" (-1) (rd 2);
  check "element 3" 9 (rd 3)

let test_tblidx () =
  let c = vla_ctx ~lanes:8 in
  check "no builds yet" 0 c.Sem.n_tbl_builds;
  Sem.exec_governed c (Governed.Tblidx { gov = Governed.Pred; pattern = Perm.Reverse 4 });
  Sem.exec_governed c (Governed.Tblidx { gov = Governed.Pred; pattern = Perm.pairswap });
  check "each build counted" 2 c.Sem.n_tbl_builds;
  let eff = Sem.last_effect c in
  check "no memory traffic" 0 (List.length eff.Sem.accesses)

(* --- permutations recover as table lookups --- *)

(* The canonical Table-3 rule-3 idiom: an offset-array load the
   fixed-width DFA recovers as [pairswap]. The VLA backend recognises
   the same shape and lowers it to a predicated table-lookup gather with
   a runtime-built index vector — no abort, no scalar fallback. *)
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
  (* Sanity: the fixed-width backend still takes the native path. *)
  (match translate_items ~lanes:4 ~backend:Backend.fixed ~data items with
  | Liquid_translate.Translator.Translated u ->
      check "fixed path emits a register permute" 1
        (count_uops (function Ucode.UV (Vinsn.Vperm _) -> true | _ -> false) u)
  | Liquid_translate.Translator.Aborted a ->
      Alcotest.failf "fixed backend should translate pairswap: %s"
        (Abort.to_string a));
  List.iter
    (fun lanes ->
      let u =
        match translate_items ~lanes ~backend:Backend.vla ~data items with
        | Liquid_translate.Translator.Translated u -> u
        | Liquid_translate.Translator.Aborted a ->
            Alcotest.failf "VLA aborted at %d lanes: %s" lanes
              (Abort.to_string a)
      in
      check "one index-table build" 1
        (count_uops (function Ucode.UG (Governed.Tblidx { gov = Governed.Pred; _ }) -> true | _ -> false) u);
      check "one table-lookup gather" 1
        (count_uops (function Ucode.UG (Governed.Tbl { gov = Governed.Pred; _ }) -> true | _ -> false) u);
      check "no register permute" 0
        (count_uops
           (function
             | Ucode.UV (Vinsn.Vperm _) | Ucode.UG (Governed.Op { gov = Governed.Pred; v = Vinsn.Vperm _ })
               ->
                 true
             | _ -> false)
           u);
      (* Both the offset-array load and the partner data load collapse
         into the table lookup — the alignment-network collapse. *)
      check "no residual vector load" 0
        (count_uops
           (function Ucode.UG (Governed.Op { gov = Governed.Pred; v = Vinsn.Vld _ }) -> true | _ -> false)
           u);
      (* The index-table build runs once per call: it precedes the
         header whilelt, and the back-edge re-enters after both. *)
      let target =
        match u.Ucode.uops.(Array.length u.Ucode.uops - 2) with
        | Ucode.UB { cond = Cond.Lt; target } -> target
        | _ -> Alcotest.fail "expected the loop back-edge right before ret"
      in
      (match u.Ucode.uops.(target - 1) with
      | Ucode.UG (Governed.Set { gov = Governed.Pred; _ }) -> ()
      | _ -> Alcotest.fail "back-edge target not after the header whilelt");
      (match u.Ucode.uops.(target - 2) with
      | Ucode.UG (Governed.Tblidx { gov = Governed.Pred; _ }) -> ()
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
    match translate_items ~lanes:4 ~backend:Backend.vla ~data items with
    | Liquid_translate.Translator.Translated u -> u
    | Liquid_translate.Translator.Aborted a ->
        Alcotest.failf "VLA aborted on scatter: %s" (Abort.to_string a)
  in
  check "one table-lookup scatter" 1
    (count_uops (function Ucode.UG (Governed.Tblst { gov = Governed.Pred; _ }) -> true | _ -> false) u);
  check "no residual vector store" 0
    (count_uops
       (function Ucode.UG (Governed.Op { gov = Governed.Pred; v = Vinsn.Vst _ }) -> true | _ -> false)
       u)

(* End-to-end at a trip count no fixed width divides: the recovered
   table lookup reproduces the scalar stream bit-exactly at every
   hardware width, predicated tail included. *)
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
              Cpu.backend = Backend.vla;
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
  expect_abort ~lanes:4 ~backend:Backend.vla ~data items
    (fun a -> a = Abort.Unportable_permutation)
    "data-dependent shuffle under VLA"

(* The FFT workload leans on butterflies: under the VLA backend every
   permuting region now recovers as a table lookup — no unportable
   aborts, all regions vectorized, state still bit-identical to the
   scalar oracle. *)
let test_fft_recovers () =
  let w = Option.get (Workload.find "FFT") in
  let { Runner.run; program; _ } = Runner.run_cached w (Runner.Liquid_vla 8) in
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
  check_bool "oracle equivalence" true (Oracle.equivalent w image run)

(* --- scalar-equivalence oracle, all workloads x all widths --- *)

let test_oracle_equivalence (w : Workload.t) () =
  List.iter
    (fun width ->
      let { Runner.run; program; _ } =
        Runner.run_cached w (Runner.Liquid_vla width)
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
    Alcotest.test_case "whilelt prefix predicates" `Quick test_whilelt;
    Alcotest.test_case "incvl advances by VL" `Quick test_incvl;
    Alcotest.test_case "predicated dp zeroes inactive lanes" `Quick
      test_pred_dp_zeroing;
    Alcotest.test_case "predicated load/store touch active lanes" `Quick
      test_pred_load_store;
    Alcotest.test_case "predicated reduction folds active lanes" `Quick
      test_pred_reduction;
    Alcotest.test_case "predicated permutation is illegal" `Quick
      test_pred_permutation_sigill;
    Alcotest.test_case "fixed backend aborts on 15 trips" `Quick
      test_fixed_backend_aborts;
    Alcotest.test_case "vla translation structure" `Quick
      test_vla_translation_structure;
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
    Alcotest.test_case "FFT recovers its butterflies under VLA" `Quick
      test_fft_recovers;
  ]
  @ List.map
      (fun (w : Workload.t) ->
        Alcotest.test_case
          (Printf.sprintf "oracle equivalence %s" w.Workload.name)
          `Quick (test_oracle_equivalence w))
      (Workload.all ())
