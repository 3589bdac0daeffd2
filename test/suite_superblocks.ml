(* Differential tests for the trace-superblock tier (Blocks).

   Like the block engine underneath it, the tier is an execution
   strategy, not a semantics change: for every workload, variant and
   accelerator width, the run with superblocks on must produce exactly
   the same pinned counters, register file and memory as the run with
   superblocks off (both with translation blocks on). The matrix below
   covers all fifteen workloads under baseline, Liquid-on-scalar, and
   Liquid/oracle/VLA at widths 2/4/8/16 — every Stats field, the unit
   counters (caches, predictor, microcode cache) and FNV fingerprints
   of final register and memory state — plus the predication
   conservation law on both runs.

   Hand-built loops then attack the guard: trip counts straddling the
   formation threshold (a superblock formed on the very last iteration,
   or never), a loop whose trip count changes between re-entries so the
   guard bails at a different iteration every time, a body with an
   internal conditional branch (formation must fail, execution must not
   care), and a fuel budget that expires mid-loop (the tier must bail
   to the block path and die on exactly the same instruction). Separate
   cases cover the inherited fidelity self-disable (fault hooks, trace
   observers) and a seeded fault campaign at the default config. *)

open Liquid_isa
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

(* Pinned counters only: block/superblock execution tallies are
   telemetry of the strategy itself and legitimately differ between the
   two runs; everything here must not. *)
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

let check_conservation what (r : Cpu.run) =
  Alcotest.(check int)
    (what ^ ": pred fast + masked = dispatched")
    r.Cpu.governed_execs
    (r.Cpu.pred_fast_iters + r.Cpu.pred_masked_iters)

let check_variant w variant =
  match Runner.program_of w variant with
  | exception Codegen.Unsupported_width _ -> ()
  | program ->
      let image = Image.of_program program in
      let on = Runner.run_cached ~superblocks:true w variant in
      let off = Runner.run_cached ~superblocks:false w variant in
      let what =
        Printf.sprintf "%s/%s" w.Workload.name (Runner.variant_name variant)
      in
      check_identical what on.Runner.run off.Runner.run;
      Alcotest.(check int)
        (what ^ ": memory hash")
        (mem_hash image off.Runner.run.Cpu.memory)
        (mem_hash image on.Runner.run.Cpu.memory);
      check_conservation (what ^ " [super on]") on.Runner.run;
      check_conservation (what ^ " [super off]") off.Runner.run;
      Alcotest.(check int)
        (what ^ ": tier off forms nothing")
        0 off.Runner.run.Cpu.superblocks_compiled;
      Alcotest.(check int)
        (what ^ ": tier off iterates nothing")
        0 off.Runner.run.Cpu.superblock_iters

let test_workload w () = List.iter (check_variant w) variants

(* The matrix is vacuous if the tier never actually fires: the probe
   workloads below are known to form and iterate superblocks. *)
let test_activity () =
  let probe name variant =
    let w =
      match Workload.find name with Some w -> w | None -> assert false
    in
    let r = (Runner.run_cached w variant).Runner.run in
    Alcotest.(check bool)
      (name ^ ": superblocks formed") true
      (r.Cpu.superblocks_compiled > 0);
    Alcotest.(check bool)
      (name ^ ": superblock iterations ran") true
      (r.Cpu.superblock_iters > 0);
    Alcotest.(check bool)
      (name ^ ": every execution run bailed out exactly once") true
      (r.Cpu.superblock_bailouts > 0
      && r.Cpu.superblock_bailouts <= r.Cpu.superblock_iters)
  in
  probe "GSM Dec." Runner.Baseline;
  probe "FIR" Runner.Baseline;
  probe "MPEG2 Dec." (Runner.Liquid 8)

(* --- hand-built loops around the formation threshold --- *)

(* A do-while loop over [trips] iterations: load, accumulate, store,
   bump, compare, conditional back-edge. One conditional back-edge,
   nothing else conditional — the canonical formation candidate. *)
let counting_program ~trips =
  let open Build in
  Program.make
    ~name:(Printf.sprintf "count%d" trips)
    ~text:
      [
        Program.Label "main";
        mov (r 1) 0;
        mov (r 2) 0;
        label "loop";
        ld (r 3) "xs" (ri (r 1));
        dp Opcode.Add (r 2) (r 2) (ri (r 3));
        st (r 2) "ys" (ri (r 1));
        addi (r 1) (r 1) 1;
        cmp (r 1) (i trips);
        b ~cond:Cond.Lt "loop";
        st (r 2) "sum" (i 0);
        halt;
      ]
    ~data:
      [
        Data.make ~name:"xs" ~esize:Esize.Word
          (Array.init (max trips 1) (fun i -> (i * 13) - 7));
        Data.zeros ~name:"ys" ~esize:Esize.Word (max trips 1);
        Data.zeros ~name:"sum" ~esize:Esize.Word 1;
      ]

let run_counting ~superblocks trips =
  let config = { Cpu.scalar_config with Cpu.superblocks } in
  Cpu.run ~config (Image.of_program (counting_program ~trips))

(* The threshold is 16 taken back-edges counted on the block that
   starts at the loop head. Iteration 1 reaches the latch through the
   program-entry block (whose pc precedes the head, so the backward
   test rejects it); iterations 2..trips-1 fire the counted edge. The
   first trip count that forms is therefore 18, with exactly one
   iteration run inside the trace before the guard fails; every larger
   count runs [trips - 17]. *)
let test_trip_counts () =
  List.iter
    (fun trips ->
      let on = run_counting ~superblocks:true trips in
      let off = run_counting ~superblocks:false trips in
      let what = Printf.sprintf "count%d" trips in
      check_identical what on off;
      Alcotest.(check bool)
        (what ^ ": memories equal")
        true
        (Liquid_machine.Memory.equal on.Cpu.memory off.Cpu.memory);
      let expect_supers = if trips >= 18 then 1 else 0 in
      Alcotest.(check int)
        (what ^ ": superblocks formed")
        expect_supers on.Cpu.superblocks_compiled;
      Alcotest.(check int)
        (what ^ ": superblock iterations")
        (if trips >= 18 then trips - 17 else 0)
        on.Cpu.superblock_iters;
      Alcotest.(check int)
        (what ^ ": bailouts (one per guard exit)")
        expect_supers on.Cpu.superblock_bailouts)
    [ 1; 2; 15; 16; 17; 18; 19; 31; 33; 100 ]

(* An inner loop whose trip count is recomputed by the outer loop
   ((outer land 7) + 1, so between 1 and 8 inner iterations): the
   superblock formed on the inner latch is re-entered dozens of times
   and its guard fails at a different iteration each round. The outer
   back-edge is also hot, but its body contains the inner conditional
   branch, so formation on the outer latch must fail — and keep
   failing silently. *)
let varying_program =
  let open Build in
  Program.make ~name:"varying"
    ~text:
      [
        Program.Label "main";
        mov (r 1) 0;
        mov (r 5) 0;
        label "outer";
        dp Opcode.And (r 4) (r 1) (i 7);
        addi (r 4) (r 4) 1;
        mov (r 2) 0;
        label "inner";
        ld (r 3) "xs" (ri (r 2));
        dp Opcode.Add (r 5) (r 5) (ri (r 3));
        addi (r 2) (r 2) 1;
        cmp (r 2) (ri (r 4));
        b ~cond:Cond.Lt "inner";
        st (r 5) "ys" (ri (r 1));
        addi (r 1) (r 1) 1;
        cmp (r 1) (i 64);
        b ~cond:Cond.Lt "outer";
        halt;
      ]
    ~data:
      [
        Data.make ~name:"xs" ~esize:Esize.Word
          (Array.init 8 (fun i -> i + 100));
        Data.zeros ~name:"ys" ~esize:Esize.Word 64;
      ]

let test_varying_trip_counts () =
  let run ~superblocks =
    let config = { Cpu.scalar_config with Cpu.superblocks } in
    Cpu.run ~config (Image.of_program varying_program)
  in
  let on = run ~superblocks:true in
  let off = run ~superblocks:false in
  check_identical "varying" on off;
  Alcotest.(check bool)
    "varying: memories equal" true
    (Liquid_machine.Memory.equal on.Cpu.memory off.Cpu.memory);
  (* only the inner latch can form; the outer body's conditional branch
     makes its trace ineligible *)
  Alcotest.(check int) "varying: only the inner loop forms" 1
    on.Cpu.superblocks_compiled;
  Alcotest.(check bool)
    "varying: guard re-entered many times (one bailout per entry)" true
    (on.Cpu.superblock_bailouts > 10)

(* A body with an internal conditional skip: the trace walk from the
   loop head hits a conditional terminator mid-trace, so formation
   fails — once, permanently — while execution stays identical. *)
let branchy_program =
  let open Build in
  Program.make ~name:"branchy"
    ~text:
      [
        Program.Label "main";
        mov (r 1) 0;
        mov (r 2) 0;
        label "loop";
        ld (r 3) "xs" (ri (r 1));
        cmp (r 3) (i 0);
        b ~cond:Cond.Lt "skip";
        dp Opcode.Add (r 2) (r 2) (ri (r 3));
        label "skip";
        addi (r 1) (r 1) 1;
        cmp (r 1) (i 200);
        b ~cond:Cond.Lt "loop";
        st (r 2) "sum" (i 0);
        halt;
      ]
    ~data:
      [
        Data.make ~name:"xs" ~esize:Esize.Word
          (Array.init 200 (fun i -> if i mod 3 = 0 then -i else i));
        Data.zeros ~name:"sum" ~esize:Esize.Word 1;
      ]

let test_formation_failure () =
  let run ~superblocks =
    let config = { Cpu.scalar_config with Cpu.superblocks } in
    Cpu.run ~config (Image.of_program branchy_program)
  in
  let on = run ~superblocks:true in
  let off = run ~superblocks:false in
  check_identical "branchy" on off;
  Alcotest.(check int) "branchy: formation failed" 0
    on.Cpu.superblocks_compiled;
  Alcotest.(check int) "branchy: no superblock iterations" 0
    on.Cpu.superblock_iters

(* Fuel expiring in the middle of a hot loop: the tier must bail to the
   block path at an iteration boundary and let it die on exactly the
   same instruction, cycle and retired count as the tier-off run. *)
let test_fuel_bailout () =
  List.iter
    (fun fuel ->
      let image = Image.of_program (counting_program ~trips:5000) in
      let result superblocks =
        Cpu.run_result
          ~config:{ Cpu.scalar_config with Cpu.fuel; Cpu.superblocks }
          image
      in
      match (result true, result false) with
      | Error don, Error doff ->
          Alcotest.(check bool)
            (Printf.sprintf "fuel %d: identical diagnostics" fuel)
            true (don = doff);
          Alcotest.(check string)
            (Printf.sprintf "fuel %d: fuel fault" fuel)
            "fuel-exhausted"
            (Diag.fault_name don.Diag.fault)
      | _ ->
          Alcotest.failf "fuel %d: expected both runs to exhaust fuel" fuel)
    [ 200; 301; 1111 ]

(* --- inherited fidelity self-disable --- *)

let noop_hooks =
  {
    Cpu.fh_abort = (fun ~entry:_ ~observed:_ -> None);
    fh_corrupt = (fun ~entry:_ ~observed:_ -> false);
    fh_evict = (fun ~entry:_ ~call:_ -> false);
  }

(* Fault hooks and trace observers force the block engine off, and the
   tier rides on the engine: all superblock telemetry must be zero and
   the run still exact. *)
let test_self_disable () =
  let w =
    match Workload.find "GSM Dec." with Some w -> w | None -> assert false
  in
  let image = Image.of_program (Codegen.liquid w.Workload.program) in
  let config = Cpu.liquid_config ~lanes:8 in
  let plain = Cpu.run ~config image in
  Alcotest.(check bool)
    "tier on by default" true
    (plain.Cpu.superblocks_compiled > 0);
  let faulted =
    Cpu.run ~config:{ config with Cpu.faults = Some noop_hooks } image
  in
  Alcotest.(check int) "fault hooks disable the tier" 0
    faulted.Cpu.superblocks_compiled;
  Alcotest.(check int) "fault hooks: no superblock iterations" 0
    faulted.Cpu.superblock_iters;
  check_identical "GSM Dec./noop-fault-hooks" plain faulted;
  let traced =
    Cpu.run ~config:{ config with Cpu.on_trace = Some (fun _ -> ()) } image
  in
  Alcotest.(check int) "trace observer disables the tier" 0
    traced.Cpu.superblocks_compiled;
  check_identical "GSM Dec./noop-trace" plain traced;
  let off = Cpu.run ~config:{ config with Cpu.blocks = false } image in
  Alcotest.(check int) "blocks=false forms no superblocks" 0
    off.Cpu.superblocks_compiled

(* The seeded fault campaign runs with the config's defaults (blocks
   and superblocks both on): every injected case must still degrade to
   the scalar-identical state, because the campaign's hooks force the
   whole engine off underneath it. *)
let test_fault_campaign () =
  let w =
    match Workload.find "FIR" with Some w -> w | None -> assert false
  in
  let report =
    Liquid_faults.Campaign.run ~workloads:[ w ] ~widths:[ 8 ] ~seed:2007 ()
  in
  Alcotest.(check bool)
    "campaign survives with the tier at its default" true
    (Liquid_faults.Campaign.survived report)

let tests =
  List.map
    (fun (w : Workload.t) ->
      Alcotest.test_case
        (Printf.sprintf "differential %s" w.Workload.name)
        `Quick (test_workload w))
    (Workload.all ())
  @ [
      Alcotest.test_case "superblock activity on probe workloads" `Quick
        test_activity;
      Alcotest.test_case "trip counts around the formation threshold" `Quick
        test_trip_counts;
      Alcotest.test_case "varying trip counts across re-entries" `Quick
        test_varying_trip_counts;
      Alcotest.test_case "formation fails on internal conditionals" `Quick
        test_formation_failure;
      Alcotest.test_case "fuel exhaustion mid-superblock" `Quick
        test_fuel_bailout;
      Alcotest.test_case "fidelity self-disable" `Quick test_self_disable;
      Alcotest.test_case "fault campaign at default config" `Quick
        test_fault_campaign;
    ]
