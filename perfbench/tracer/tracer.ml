(* Traced in-process replay of one perfbench workload.

   The replay calls each layer's public functions in the order the
   program itself does (Service.supervise for a sweep job, the
   [liquid_cli report] section sequence, Campaign.run for fuzzing) and
   wraps every call in a span. It also returns the exact counters the
   layers already report (Cpu.run, Runner.cache_counters, Differ
   outcomes). Spans are written to a JSONL file when the replay ends;
   the summary document is the last line of stdout.

   Usage:
     tracer.exe sweep SCRIPT DOMAINS SPANS
     tracer.exe report SPANS REPORT_TEXT
     tracer.exe fuzz SEED CASES DOMAINS SPANS *)

open Liquid_prog
open Liquid_pipeline
module Json = Liquid_obs.Json
module Stats = Liquid_machine.Stats
module Backend = Liquid_translate.Backend
module Translator = Liquid_translate.Translator
module Job = Liquid_service.Job
module Runner = Liquid_harness.Runner
module Experiments = Liquid_harness.Experiments
module Workload = Liquid_workloads.Workload
module Fingerprint = Liquid_faults.Fingerprint
module Codegen = Liquid_scalarize.Codegen
module Gen = Liquid_fuzz.Gen
module Differ = Liquid_fuzz.Differ
module Campaign = Liquid_fuzz.Campaign

let time f =
  let t0 = Unix.gettimeofday () in
  let v = f () in
  (v, Unix.gettimeofday () -. t0)

(* One Offline.translate_all session per (image, backend, lanes):
   translation cost apart from the simulation that normally hosts it. *)
type offline = { mutable calls : int; mutable regions : int; mutable aborted : int; mutable errors : int }

let offline_translate off ~image ~backend ~lanes =
  off.calls <- off.calls + 1;
  match
    Span.record "translate.offline" (fun () ->
        Offline.translate_all ~backend ~image ~lanes ())
  with
  | results ->
      List.iter
        (fun (_, _, r) ->
          off.regions <- off.regions + 1;
          match r with
          | Translator.Aborted _ -> off.aborted <- off.aborted + 1
          | Translator.Translated _ -> ())
        results
  | exception _ -> off.errors <- off.errors + 1

let offline_json off =
  Json.Obj
    [
      ("calls", Json.Int off.calls);
      ("regions", Json.Int off.regions);
      ("aborted", Json.Int off.aborted);
      ("errors", Json.Int off.errors);
    ]

(* --- sweep: replay a serve script job by job --- *)

type fresh = {
  f_workload : Workload.t;
  f_variant : Runner.variant;
  f_image : Image.t;
  f_config : Cpu.config;
  f_run : Cpu.run;
}

let job_id line =
  match Json.of_string line with
  | Ok j -> (
      match (Json.member "op" j, Json.member "id" j) with
      | Some _, _ -> None
      | None, Some (Json.Str id) -> Some id
      | None, _ -> Some "")
  | Error _ -> Some ""

(* Lines between two syncs form one batch, dispatched across the
   domain pool like Service.sync does. *)
let batches lines =
  let flush cur acc = if cur = [] then acc else List.rev cur :: acc in
  let cur, acc =
    List.fold_left
      (fun (cur, acc) line ->
        match job_id line with
        | None -> ([], flush cur acc)
        | Some id -> ((id, line) :: cur, acc))
      ([], []) lines
  in
  List.rev (flush cur acc)

let empty_reply (spec : Job.spec) status =
  {
    Job.p_id = spec.Job.j_id;
    p_status = status;
    p_workload = spec.Job.j_workload;
    p_variant = spec.Job.j_variant_str;
    p_ran = "";
    p_cycles = 0;
    p_retired = 0;
    p_regs_hash = 0;
    p_mem_hash = 0;
    p_attempts = 0;
    p_cached = false;
    p_reason = None;
    p_diag = None;
  }

(* The happy path of Service.supervise, one span per layer call. *)
let replay_job dedup dedup_mutex (id, line) =
  Span.record ~job:id "job" (fun () ->
      let reply, fresh =
        match Span.record "service.parse" (fun () -> Job.parse_request line) with
        | Error msg -> failwith ("unparsable job line: " ^ msg)
        | Ok (Job.Sync | Job.Metrics | Job.Quit) -> failwith "control line in a batch"
        | Ok (Job.Job spec) -> (
            match Span.record "workloads.find" (fun () -> Workload.find spec.Job.j_workload) with
            | None -> ({ (empty_reply spec Job.Failed) with Job.p_reason = Some "unknown-workload" }, None)
            | Some w -> (
                let fp = Span.record "service.fingerprint" (fun () -> Job.fingerprint spec) in
                match Mutex.protect dedup_mutex (fun () -> Hashtbl.find_opt dedup fp) with
                | Some (cached : Job.reply) ->
                    ({ cached with Job.p_id = spec.Job.j_id; p_cached = true; p_attempts = 0 }, None)
                | None -> (
                    let program =
                      Span.record "scalarize.codegen" (fun () -> Runner.program_of w spec.Job.j_variant)
                    in
                    let image = Span.record "prog.image" (fun () -> Image.of_program program) in
                    let config =
                      {
                        (Runner.config_of spec.Job.j_variant) with
                        Cpu.blocks = spec.Job.j_blocks;
                        superblocks = spec.Job.j_superblocks;
                      }
                    in
                    match Span.record "pipeline.simulate" (fun () -> Cpu.run_result ~config image) with
                    | Error d ->
                        ( { (empty_reply spec Job.Failed) with
                            Job.p_attempts = 1;
                            p_reason = Some "permanent";
                            p_diag = Some (Diag.to_string d) },
                          None )
                    | Ok run ->
                        let regs_hash, mem_hash =
                          Span.record "faults.hash" (fun () ->
                              ( Fingerprint.regs_hash run.Cpu.regs,
                                Fingerprint.mem_hash image run.Cpu.memory ))
                        in
                        let reply =
                          {
                            (empty_reply spec Job.Ok_) with
                            Job.p_ran = spec.Job.j_variant_str;
                            p_cycles = run.Cpu.stats.Stats.cycles;
                            p_retired = Stats.total_insns run.Cpu.stats;
                            p_regs_hash = regs_hash;
                            p_mem_hash = mem_hash;
                            p_attempts = 1;
                          }
                        in
                        Mutex.protect dedup_mutex (fun () -> Hashtbl.replace dedup fp reply);
                        ( reply,
                          Some
                            {
                              f_workload = w;
                              f_variant = spec.Job.j_variant;
                              f_image = image;
                              f_config = config;
                              f_run = run;
                            } ))))
      in
      let encoded =
        Span.record "obs.reply" (fun () -> Json.to_string ~pretty:false (Job.reply_to_json reply))
      in
      (encoded, fresh))

let counters_json (runs : Cpu.run list) =
  let sum f = List.fold_left (fun acc r -> acc + f r) 0 runs in
  let st f = sum (fun r -> f r.Cpu.stats) in
  Json.Obj
    [
      ("cycles", Json.Int (st (fun s -> s.Stats.cycles)));
      ("retired", Json.Int (st Stats.total_insns));
      ("fetches", Json.Int (st (fun s -> s.Stats.fetches)));
      ("uops_retired", Json.Int (st (fun s -> s.Stats.uops_retired)));
      ("branches", Json.Int (st (fun s -> s.Stats.branches)));
      ("branch_mispredicts", Json.Int (st (fun s -> s.Stats.branch_mispredicts)));
      ("icache_hits", Json.Int (st (fun s -> s.Stats.icache_hits)));
      ("icache_misses", Json.Int (st (fun s -> s.Stats.icache_misses)));
      ("dcache_hits", Json.Int (st (fun s -> s.Stats.dcache_hits)));
      ("dcache_misses", Json.Int (st (fun s -> s.Stats.dcache_misses)));
      ("region_calls", Json.Int (st (fun s -> s.Stats.region_calls)));
      ("ucode_hits", Json.Int (st (fun s -> s.Stats.ucode_hits)));
      ("ucode_installs", Json.Int (st (fun s -> s.Stats.ucode_installs)));
      ("translations_started", Json.Int (st (fun s -> s.Stats.translations_started)));
      ("translations_aborted", Json.Int (st (fun s -> s.Stats.translations_aborted)));
      ("translation_busy_cycles", Json.Int (st (fun s -> s.Stats.translation_busy_cycles)));
      ("blocks_compiled", Json.Int (sum (fun r -> r.Cpu.blocks_compiled)));
      ("block_execs", Json.Int (sum (fun r -> r.Cpu.block_execs)));
      ("superblocks_compiled", Json.Int (sum (fun r -> r.Cpu.superblocks_compiled)));
      ("superblock_iters", Json.Int (sum (fun r -> r.Cpu.superblock_iters)));
      ("superblock_bailouts", Json.Int (sum (fun r -> r.Cpu.superblock_bailouts)));
    ]

(* The same fresh jobs with the block engine or its superblock tier off
   (the bench/main.ml twins), timed without spans. Counters must not
   move: a mismatch is reported for the caller to count as an error. *)
let engine_twins ~domains fresh =
  let timed config_of =
    time (fun () ->
        Runner.run_many ~domains
          (fun f -> Cpu.run ~config:(config_of f) f.f_image)
          fresh)
  in
  let on, on_s = timed (fun f -> f.f_config) in
  let noblocks, noblocks_s = timed (fun f -> { f.f_config with Cpu.blocks = false }) in
  let nosuper, nosuper_s = timed (fun f -> { f.f_config with Cpu.superblocks = false }) in
  let differs a b = a.Cpu.stats.Stats.cycles <> b.Cpu.stats.Stats.cycles
                    || Stats.total_insns a.Cpu.stats <> Stats.total_insns b.Cpu.stats in
  let mismatches =
    List.fold_left2
      (fun n (a, b) c -> n + Bool.to_int (differs a b) + Bool.to_int (differs a c))
      0 (List.combine on noblocks) nosuper
  in
  Json.Obj
    [
      ("on_s", Json.Float on_s);
      ("noblocks_s", Json.Float noblocks_s);
      ("nosuper_s", Json.Float nosuper_s);
      ("mismatches", Json.Int mismatches);
    ]

let target_of = function
  | Runner.Liquid w | Runner.Liquid_oracle w -> Some (Backend.fixed, w)
  | Runner.Liquid_vla w | Runner.Liquid_vla_oracle w -> Some (Backend.vla, w)
  | Runner.Liquid_rvv w | Runner.Liquid_rvv_oracle w -> Some (Backend.rvv, w)
  | Runner.Baseline | Runner.Liquid_scalar | Runner.Native _ -> None

let sweep ~script ~domains ~spans =
  let lines =
    In_channel.with_open_text script In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (fun l -> String.trim l <> "")
  in
  let dedup = Hashtbl.create 64 and dedup_mutex = Mutex.create () in
  let results, wall_s =
    time (fun () ->
        List.concat_map (Runner.run_many ~domains (replay_job dedup dedup_mutex)) (batches lines))
  in
  let fresh = List.filter_map snd results in
  let off = { calls = 0; regions = 0; aborted = 0; errors = 0 } in
  let seen = Hashtbl.create 16 in
  List.iter
    (fun f ->
      match target_of f.f_variant with
      | None -> ()
      | Some (backend, lanes) ->
          let key = (f.f_workload.Workload.name, Backend.name_of backend, lanes) in
          if not (Hashtbl.mem seen key) then begin
            Hashtbl.add seen key ();
            Span.record ~job:f.f_workload.Workload.name "offline" (fun () ->
                offline_translate off ~image:f.f_image ~backend ~lanes)
          end)
    fresh;
  let twins = engine_twins ~domains fresh in
  Span.write spans;
  Json.Obj
    [
      ("wall_s", Json.Float wall_s);
      ("replies", Json.List (List.map (fun (r, _) -> Json.Str r) results));
      ("counters", counters_json (List.map (fun f -> f.f_run) fresh));
      ("twins", twins);
      ("offline", offline_json off);
    ]

(* --- report: the liquid_cli report section sequence --- *)

let report ~spans ~text =
  let buf = Buffer.create 16384 in
  let ppf = Format.formatter_of_buffer buf in
  let section name compute pp =
    let rows = Span.record ~job:name ("harness." ^ name) compute in
    Format.fprintf ppf "%a@.@." pp rows
  in
  let sweep_pp title value_label = Experiments.pp_sweep ~title ~value_label in
  let (), wall_s =
    time (fun () ->
        section "table2" Experiments.table2 Experiments.pp_table2;
        section "table5" Experiments.table5 Experiments.pp_table5;
        section "table6" Experiments.table6 Experiments.pp_table6;
        section "figure6" (fun () -> Experiments.figure6 ()) Experiments.pp_figure6;
        section "code_size" Experiments.code_size Experiments.pp_code_size;
        section "ucode_cache" Experiments.ucode_cache Experiments.pp_ucode_cache;
        section "latency_ablation" (fun () -> Experiments.latency_ablation ()) Experiments.pp_latency;
        section "overhead_convergence"
          (fun () -> Experiments.overhead_convergence ())
          Experiments.pp_overhead;
        section "translator_kind_ablation"
          (fun () -> Experiments.translator_kind_ablation ())
          Experiments.pp_kind;
        section "ucode_entries_ablation"
          (fun () -> Experiments.ucode_entries_ablation ())
          (sweep_pp "Microcode cache capacity (8 hot loops round-robin, 8 lanes)" "Entries");
        section "buffer_ablation"
          (fun () -> Experiments.buffer_ablation ())
          (sweep_pp "Microcode buffer capacity (101.tomcatv, largest loop 63 uops)" "Capacity");
        section "bus_ablation"
          (fun () -> Experiments.bus_ablation ())
          (sweep_pp "Vector memory bus width (FIR, 16 lanes)" "Bus bytes");
        section "interrupt_ablation"
          (fun () -> Experiments.interrupt_ablation ())
          (sweep_pp "Context-switch interval in cycles (FFT, 8 lanes; 0 = never)" "Interval"))
  in
  Out_channel.with_open_text text (fun oc -> Out_channel.output_string oc (Buffer.contents buf));
  Span.write spans;
  let memo = Runner.cache_counters () in
  Json.Obj
    [
      ("wall_s", Json.Float wall_s);
      ( "memo",
        Json.Obj
          [
            ("hits", Json.Int memo.Liquid_harness.Lru.l_hits);
            ("misses", Json.Int memo.Liquid_harness.Lru.l_misses);
            ("evictions", Json.Int memo.Liquid_harness.Lru.l_evictions);
          ] );
    ]

(* --- fuzz: Campaign.run, one span per generated case --- *)

let fuzz ~seed ~cases ~domains ~spans =
  let one index =
    let job = Gen.case_name ~seed ~index in
    Span.record ~job "job" (fun () ->
        let p = Span.record "fuzz.generate" (fun () -> Gen.generate ~seed ~index) in
        let fault_seed = Campaign.fault_seed_of ~seed ~index in
        (p, Span.record "fuzz.run_case" (fun () -> Differ.run_case ~fault_seed p)))
  in
  let outcomes, wall_s = time (fun () -> Runner.run_many ~domains one (List.init cases Fun.id)) in
  let off = { calls = 0; regions = 0; aborted = 0; errors = 0 } in
  List.iteri
    (fun index (p, _) ->
      Span.record ~job:(Gen.case_name ~seed ~index) "offline" (fun () ->
          let program = Span.record "scalarize.codegen" (fun () -> Codegen.liquid p) in
          let image = Span.record "prog.image" (fun () -> Image.of_program program) in
          List.iter
            (fun backend ->
              List.iter (fun lanes -> offline_translate off ~image ~backend ~lanes) Differ.widths)
            [ Backend.fixed; Backend.vla; Backend.rvv ]))
    outcomes;
  Span.write spans;
  let sum f = List.fold_left (fun acc (_, o) -> acc + f o) 0 outcomes in
  Json.Obj
    [
      ("wall_s", Json.Float wall_s);
      ("cases", Json.Int cases);
      ("runs", Json.Int (sum (fun o -> o.Differ.o_runs)));
      ("installs", Json.Int (sum (fun o -> o.Differ.o_installs)));
      ("aborts", Json.Int (sum (fun o -> List.fold_left (fun a (_, n) -> a + n) 0 o.Differ.o_aborts)));
      ("divergent", Json.Int (sum (fun o -> Bool.to_int (o.Differ.o_divergences <> []))));
      ("offline", offline_json off);
    ]

let () =
  let summary =
    match Array.to_list Sys.argv |> List.tl with
    | [ "sweep"; script; domains; spans ] ->
        sweep ~script ~domains:(int_of_string domains) ~spans
    | [ "report"; spans; text ] -> report ~spans ~text
    | [ "fuzz"; seed; cases; domains; spans ] ->
        fuzz ~seed:(int_of_string seed) ~cases:(int_of_string cases)
          ~domains:(int_of_string domains) ~spans
    | _ ->
        prerr_endline
          "usage: tracer.exe (sweep SCRIPT DOMAINS SPANS | report SPANS TEXT | fuzz SEED CASES DOMAINS SPANS)";
        exit 2
  in
  print_endline (Json.to_string ~pretty:false summary)
