(* Differential tests for the translation-block engine (Blocks).

   The engine is an execution strategy, not a semantics change, so its
   whole contract is bit-identity: for every workload, variant and
   accelerator width, the run with blocks on must produce exactly the
   same counters, register file and memory as the step-by-step run with
   blocks off. The matrix below covers all fifteen workloads under
   baseline, Liquid-on-scalar, and Liquid/oracle/VLA at widths
   2/4/8/16 — every Stats field, the unit counters (caches, predictor,
   microcode cache) and FNV fingerprints of final register and memory
   state.

   Separate cases cover the fidelity fallbacks: an interrupt-driven run
   (epoch catch-up across block stretches), the engine's self-disable
   under fault hooks and trace observers (per-step observation must win
   over speed), and a seeded fault campaign run end-to-end with the
   engine left at its default. *)

open Liquid_prog
open Liquid_pipeline
open Liquid_scalarize
open Liquid_harness
open Liquid_workloads
module Stats = Liquid_machine.Stats

let regs_hash = Liquid_faults.Fingerprint.regs_hash
let mem_hash = Liquid_faults.Fingerprint.mem_hash

let widths = [ 2; 4; 8; 16 ]

let variants =
  [ Runner.Baseline; Runner.Liquid_scalar ]
  @ List.concat_map
      (fun w ->
        [
          Runner.Liquid w;
          Runner.Liquid_oracle w;
          Runner.Liquid_vla w;
          Runner.Liquid_vla_oracle w;
        ])
      widths

(* Compare two runs of the same (workload, variant) observable by
   observable. The cycle counter first and by name: it folds in every
   timing rule (stalls, penalties, miss latencies), so when the engine
   drifts this is the check that reads best in a failure. *)
let check_identical what (on : Cpu.run) (off : Cpu.run) =
  let ck field = Alcotest.(check int) (what ^ ": " ^ field) in
  ck "cycles" off.Cpu.stats.Stats.cycles on.Cpu.stats.Stats.cycles;
  Alcotest.(check bool)
    (what ^ ": full Stats record") true
    (off.Cpu.stats = on.Cpu.stats);
  Alcotest.(check bool)
    (what ^ ": icache counters") true
    (off.Cpu.icache_counters = on.Cpu.icache_counters);
  Alcotest.(check bool)
    (what ^ ": dcache counters") true
    (off.Cpu.dcache_counters = on.Cpu.dcache_counters);
  Alcotest.(check bool)
    (what ^ ": predictor counters") true
    (off.Cpu.bpred_counters = on.Cpu.bpred_counters);
  Alcotest.(check bool)
    (what ^ ": ucode cache counters") true
    (off.Cpu.ucache_counters = on.Cpu.ucache_counters);
  ck "ucode max occupancy" off.Cpu.ucode_max_occupancy
    on.Cpu.ucode_max_occupancy;
  ck "register hash" (regs_hash off.Cpu.regs) (regs_hash on.Cpu.regs)

let check_variant w variant =
  match Runner.program_of w variant with
  | exception Codegen.Unsupported_width _ -> ()
  | program ->
      let image = Image.of_program program in
      let on = Runner.run_cached ~blocks:true w variant in
      let off = Runner.run_cached ~blocks:false w variant in
      let what =
        Printf.sprintf "%s/%s" w.Workload.name (Runner.variant_name variant)
      in
      check_identical what on.Runner.run off.Runner.run;
      Alcotest.(check int)
        (what ^ ": memory hash")
        (mem_hash image off.Runner.run.Cpu.memory)
        (mem_hash image on.Runner.run.Cpu.memory);
      (* The comparison is vacuous if the engine never actually ran. *)
      Alcotest.(check bool)
        (what ^ ": engine executed blocks")
        true
        (on.Runner.run.Cpu.block_execs > 0);
      Alcotest.(check int)
        (what ^ ": engine off stays off")
        0 off.Runner.run.Cpu.block_execs

let test_workload w () = List.iter (check_variant w) variants

(* --- translator sessions observed on blocks --- *)

(* With the engine on, a live translator session is fed by the engine
   itself instead of forcing per-step execution. Observation must not
   change what is observed: for every workload on each translating
   backend and width, the blocks-on run (sessions observed on blocks)
   and the blocks-off run (stepped sessions) must agree on timing,
   architectural state, every region's outcome, the exact microcode
   each session installed, and the number of instructions sessions
   were fed. *)
let session_variants =
  List.concat_map
    (fun w -> [ Runner.Liquid w; Runner.Liquid_vla w; Runner.Liquid_rvv w ])
    widths

let check_sessions_variant w variant =
  let image = Image.of_program (Runner.program_of w variant) in
  let config = Runner.config_of variant in
  let on, on_installs = Cpu.run_with_installs ~config image in
  let off, off_installs =
    Cpu.run_with_installs ~config:{ config with Cpu.blocks = false } image
  in
  let what =
    Printf.sprintf "%s/%s" w.Workload.name (Runner.variant_name variant)
  in
  let ck field = Alcotest.(check int) (what ^ ": " ^ field) in
  ck "cycles" off.Cpu.stats.Stats.cycles on.Cpu.stats.Stats.cycles;
  ck "retired"
    (Stats.total_insns off.Cpu.stats)
    (Stats.total_insns on.Cpu.stats);
  ck "register hash" (regs_hash off.Cpu.regs) (regs_hash on.Cpu.regs);
  ck "memory hash"
    (mem_hash image off.Cpu.memory)
    (mem_hash image on.Cpu.memory);
  ck "session instructions" off.Cpu.session_insns on.Cpu.session_insns;
  Alcotest.(check bool)
    (what ^ ": sessions observed something")
    true (on.Cpu.session_insns > 0);
  Alcotest.(check int)
    (what ^ ": region count")
    (List.length off.Cpu.regions)
    (List.length on.Cpu.regions);
  List.iter2
    (fun (a : Cpu.region_report) (b : Cpu.region_report) ->
      let what = what ^ "/" ^ a.Cpu.label in
      Alcotest.(check string) (what ^ ": label") a.Cpu.label b.Cpu.label;
      Alcotest.(check bool)
        (what ^ ": call cycles") true
        (a.Cpu.calls = b.Cpu.calls);
      Alcotest.(check int)
        (what ^ ": microcode calls")
        a.Cpu.ucode_served b.Cpu.ucode_served;
      Alcotest.(check bool) (what ^ ": outcome") true (a.Cpu.outcome = b.Cpu.outcome))
    off.Cpu.regions on.Cpu.regions;
  Alcotest.(check bool)
    (what ^ ": installed microcode") true
    (off_installs = on_installs);
  Alcotest.(check bool)
    (what ^ ": sessions installed microcode") true
    (on_installs <> [])

let test_sessions_workload w () =
  List.iter (check_sessions_variant w) session_variants

(* The observed dispatch in isolation: one call runs a region's whole
   loop on blocks (chaining across the back-edge) and stops at the
   return, having fed the session every instruction it retired — the
   same stream the stepping offline harness feeds, hence the same
   microcode. With an interrupt already due it runs nothing. *)
let test_observed_dispatch () =
  let open Build in
  let module Isa = Liquid_isa in
  let module Tr = Liquid_translate.Translator in
  let ind = Vloop.induction in
  let data =
    List.map
      (fun (name, f) ->
        Liquid_prog.Data.make ~name ~esize:Isa.Esize.Word (Array.init 16 f))
      [ ("a", Fun.id); ("b", fun i -> 3 * i); ("c", fun _ -> 0) ]
  in
  let body =
    [
      mov ind 0;
      label "f_top";
      ld (r 1) "a" (ri ind);
      ld (r 2) "b" (ri ind);
      dp Isa.Opcode.Add (r 3) (r 1) (ri (r 2));
      st (r 3) "c" (ri ind);
      addi ind ind 1;
      cmp ind (i 16);
      b ~cond:Isa.Cond.Lt "f_top";
    ]
  in
  let prog =
    Program.make ~name:"observed"
      ~text:
        ((Program.Label "main" :: bl_region "f" :: [ halt ])
        @ (Program.Label "f" :: body)
        @ [ ret ])
      ~data
  in
  let image = Image.of_program prog in
  let entry = Option.get (Image.find_label image "f") in
  let mem = Liquid_machine.Memory.create () in
  Image.load_memory image mem;
  let eng =
    Blocks.create ~image ~ctx:(Sem.create_ctx mem) ~stats:(Stats.create ())
      ~icache:None ~dcache:None
      ~bpred:(Liquid_machine.Branch_pred.create ())
      ~mem_latency:30 ~mul_extra:1 ~mispredict_penalty:3 ~vec_bus_bytes:16
      ~lanes:(Some 4) ~max_uops:64 ~fuel:max_int ~superblocks:true
  in
  let tr = Tr.create (Tr.default_config ~lanes:4 ()) in
  Alcotest.(check bool)
    "declines while an interrupt is due" false
    (Blocks.try_exec_observed eng tr ~pc:entry ~retired:0 ~pending:None
       ~interrupt_at:0);
  Alcotest.(check int) "nothing observed" 0 (Tr.observed tr);
  Alcotest.(check bool)
    "runs the region on blocks" true
    (Blocks.try_exec_observed eng tr ~pc:entry ~retired:0 ~pending:None
       ~interrupt_at:max_int);
  let pc = Blocks.out_pc eng in
  Alcotest.(check bool)
    "stops at the return" true
    (image.Image.code.(pc) = Liquid_visa.Minsn.S Isa.Insn.Ret);
  Alcotest.(check int)
    "every retired instruction observed" (Blocks.out_retired eng)
    (Tr.observed tr);
  Alcotest.(check int)
    "engine tally" (Blocks.out_retired eng) (Blocks.session_insns eng);
  Alcotest.(check bool) "the loop ran 16 times" true (Tr.observed tr > 16 * 7);
  Tr.observe tr ~pc ~insn:Isa.Insn.Ret ~value:Tr.no_value;
  Alcotest.(check bool)
    "same microcode as the stepped offline session" true
    (Tr.finish tr = Offline.translate_region ~image ~lanes:4 ~entry ())

(* --- interrupts: epoch catch-up across block stretches --- *)

(* Blocks never run [interrupt_check]; the countdown threshold catches
   up by division on the next step. The observable effects (aborted
   translator sessions, their retry translations) must still land on
   identical cycles. FFT at a 1000-cycle context-switch interval aborts
   several sessions mid-flight. *)
let test_interrupts () =
  let w =
    match Workload.find "FFT" with Some w -> w | None -> assert false
  in
  let image = Image.of_program (Codegen.liquid w.Workload.program) in
  let config =
    { (Cpu.liquid_config ~lanes:8) with Cpu.interrupt_interval = Some 1000 }
  in
  let on = Cpu.run ~config image in
  let off = Cpu.run ~config:{ config with Cpu.blocks = false } image in
  check_identical "FFT/interrupt-1000" on off;
  (* a live session is only observed on blocks that end before the next
     interrupt, so an interrupt aborts it at exactly the stepped
     instruction and both tiers feed it the same stream *)
  Alcotest.(check int) "FFT/interrupt-1000: session instructions"
    off.Cpu.session_insns on.Cpu.session_insns;
  Alcotest.(check bool)
    "interrupts actually fired (sessions aborted)" true
    (on.Cpu.stats.Stats.translations_aborted > 0);
  Alcotest.(check bool) "engine executed blocks" true (on.Cpu.block_execs > 0)

(* --- fidelity self-disable --- *)

let noop_hooks =
  {
    Cpu.fh_abort = (fun ~entry:_ ~observed:_ -> None);
    fh_corrupt = (fun ~entry:_ ~observed:_ -> false);
    fh_evict = (fun ~entry:_ ~call:_ -> false);
  }

(* Fault hooks and trace observers need per-step observation, so the
   engine must not run at all — and with no-op hooks the run must still
   match the unhooked one exactly. *)
let test_self_disable () =
  let w =
    match Workload.find "GSM Dec." with Some w -> w | None -> assert false
  in
  let image = Image.of_program (Codegen.liquid w.Workload.program) in
  let config = Cpu.liquid_config ~lanes:8 in
  let plain = Cpu.run ~config image in
  Alcotest.(check bool) "engine on by default" true (plain.Cpu.block_execs > 0);
  let faulted =
    Cpu.run ~config:{ config with Cpu.faults = Some noop_hooks } image
  in
  Alcotest.(check int) "fault hooks disable the engine" 0
    faulted.Cpu.block_execs;
  check_identical "GSM Dec./noop-fault-hooks" plain faulted;
  let traced =
    Cpu.run ~config:{ config with Cpu.on_trace = Some (fun _ -> ()) } image
  in
  Alcotest.(check int) "trace observer disables the engine" 0
    traced.Cpu.block_execs;
  check_identical "GSM Dec./noop-trace" plain traced;
  let off = Cpu.run ~config:{ config with Cpu.blocks = false } image in
  Alcotest.(check int) "blocks=false builds no engine" 0 off.Cpu.blocks_compiled

(* The fault campaign runs with the config's default [blocks = true]:
   every injected case must still degrade to the scalar-identical state,
   because the campaign's hooks force the engine off underneath it. *)
let test_fault_campaign () =
  let w =
    match Workload.find "FIR" with Some w -> w | None -> assert false
  in
  let report =
    Liquid_faults.Campaign.run ~workloads:[ w ] ~widths:[ 8 ] ~seed:2007 ()
  in
  Alcotest.(check bool)
    "campaign survives with the engine at its default" true
    (Liquid_faults.Campaign.survived report)

let tests =
  List.map
    (fun (w : Workload.t) ->
      Alcotest.test_case
        (Printf.sprintf "differential %s" w.Workload.name)
        `Quick (test_workload w))
    (Workload.all ())
  @ List.map
      (fun (w : Workload.t) ->
        Alcotest.test_case
          (Printf.sprintf "observed sessions %s" w.Workload.name)
          `Quick (test_sessions_workload w))
      (Workload.all ())
  @ [
      Alcotest.test_case "observed dispatch" `Quick test_observed_dispatch;
      Alcotest.test_case "interrupt epoch catch-up" `Quick test_interrupts;
      Alcotest.test_case "fidelity self-disable" `Quick test_self_disable;
      Alcotest.test_case "fault campaign at default config" `Quick
        test_fault_campaign;
    ]
