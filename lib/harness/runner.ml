open Liquid_prog
open Liquid_pipeline
open Liquid_scalarize
open Liquid_translate
open Liquid_workloads

type variant =
  | Baseline
  | Liquid_scalar
  | Liquid of int
  | Liquid_oracle of int
  | Liquid_vla of int
  | Liquid_vla_oracle of int
  | Liquid_rvv of int
  | Liquid_rvv_oracle of int
  | Native of int

type result = { variant : variant; program : Program.t; run : Cpu.run }

let variant_name = function
  | Baseline -> "baseline"
  | Liquid_scalar -> "liquid/scalar"
  | Liquid w -> Printf.sprintf "liquid/%d-wide" w
  | Liquid_oracle w -> Printf.sprintf "liquid-oracle/%d-wide" w
  | Liquid_vla w -> Printf.sprintf "liquid-vla/%d-wide" w
  | Liquid_vla_oracle w -> Printf.sprintf "liquid-vla-oracle/%d-wide" w
  | Liquid_rvv w -> Printf.sprintf "liquid-rvv/%d-wide" w
  | Liquid_rvv_oracle w -> Printf.sprintf "liquid-rvv-oracle/%d-wide" w
  | Native w -> Printf.sprintf "native/%d-wide" w

(* One parser for the CLI's and the sweep service's variant syntax, so
   the two front ends can never drift apart. *)
let max_width = Liquid_visa.Width.(lanes max)

let variant_of_string s =
  let width ctor w =
    match int_of_string_opt w with
    | Some n when n > max_width ->
        Error
          (Printf.sprintf "bad width %S: the widest accelerator has %d lanes" w
             max_width)
    | Some n when n > 0 -> Ok (ctor n)
    | Some _ | None -> Error (Printf.sprintf "bad width %S" w)
  in
  match String.split_on_char ':' s with
  | [ "baseline" ] -> Ok Baseline
  | [ "liquid"; "scalar" ] -> Ok Liquid_scalar
  | [ "liquid"; w ] -> width (fun w -> Liquid w) w
  | [ "oracle"; w ] | [ "liquid-oracle"; w ] -> width (fun w -> Liquid_oracle w) w
  | [ "vla"; w ] | [ "liquid-vla"; w ] -> width (fun w -> Liquid_vla w) w
  | [ "vla-oracle"; w ] | [ "liquid-vla-oracle"; w ] ->
      width (fun w -> Liquid_vla_oracle w) w
  | [ "rvv"; w ] | [ "liquid-rvv"; w ] -> width (fun w -> Liquid_rvv w) w
  | [ "rvv-oracle"; w ] | [ "liquid-rvv-oracle"; w ] ->
      width (fun w -> Liquid_rvv_oracle w) w
  | [ "native"; w ] -> width (fun w -> Native w) w
  | _ ->
      Error
        (Printf.sprintf
           "unknown variant %S; expected baseline, liquid:scalar, \
            liquid:<width>, vla:<width>, rvv:<width>, oracle:<width>, \
            vla-oracle:<width>, rvv-oracle:<width> or native:<width>"
           s)

let variant_to_string = function
  | Baseline -> "baseline"
  | Liquid_scalar -> "liquid:scalar"
  | Liquid w -> Printf.sprintf "liquid:%d" w
  | Liquid_oracle w -> Printf.sprintf "oracle:%d" w
  | Liquid_vla w -> Printf.sprintf "vla:%d" w
  | Liquid_vla_oracle w -> Printf.sprintf "vla-oracle:%d" w
  | Liquid_rvv w -> Printf.sprintf "rvv:%d" w
  | Liquid_rvv_oracle w -> Printf.sprintf "rvv-oracle:%d" w
  | Native w -> Printf.sprintf "native:%d" w

let program_of (w : Workload.t) = function
  | Baseline -> Codegen.baseline w.program
  | Liquid_scalar | Liquid _ | Liquid_oracle _ | Liquid_vla _
  | Liquid_vla_oracle _ | Liquid_rvv _ | Liquid_rvv_oracle _ ->
      Codegen.liquid w.program
  | Native width -> Codegen.native ~width w.program

let config_of ?(translation_cpi = 1) = function
  | Baseline | Liquid_scalar -> Cpu.scalar_config
  | Liquid lanes ->
      {
        (Cpu.liquid_config ~lanes) with
        Cpu.translator =
          Some { Cpu.cycles_per_insn = translation_cpi; Cpu.kind = Cpu.Hardware };
      }
  | Liquid_oracle lanes ->
      { (Cpu.liquid_config ~lanes) with Cpu.oracle_translation = true }
  | Liquid_vla lanes ->
      {
        (Cpu.liquid_config ~lanes) with
        Cpu.backend = Backend.vla;
        Cpu.translator =
          Some { Cpu.cycles_per_insn = translation_cpi; Cpu.kind = Cpu.Hardware };
      }
  | Liquid_vla_oracle lanes ->
      {
        (Cpu.liquid_config ~lanes) with
        Cpu.backend = Backend.vla;
        Cpu.oracle_translation = true;
      }
  | Liquid_rvv lanes ->
      {
        (Cpu.liquid_config ~lanes) with
        Cpu.backend = Backend.rvv;
        Cpu.translator =
          Some { Cpu.cycles_per_insn = translation_cpi; Cpu.kind = Cpu.Hardware };
      }
  | Liquid_rvv_oracle lanes ->
      {
        (Cpu.liquid_config ~lanes) with
        Cpu.backend = Backend.rvv;
        Cpu.oracle_translation = true;
      }
  | Native lanes -> Cpu.native_config ~lanes

let run ?translation_cpi ?fuel ?(blocks = true) ?(superblocks = true)
    (w : Workload.t) variant =
  let program = program_of w variant in
  let config = config_of ?translation_cpi variant in
  let config =
    match fuel with None -> config | Some fuel -> { config with Cpu.fuel }
  in
  let config = { config with Cpu.blocks; Cpu.superblocks } in
  { variant; program; run = Cpu.run ~config (Image.of_program program) }

(* --- memoized runs --- *)

(* Simulations are pure functions of the workload, variant and machine
   knobs, and the experiment suite re-runs the same (workload, variant)
   pairs dozens of times (every table needs the baseline cycles of every
   workload). One process-wide table keyed on the full input tuple turns
   those repeats into lookups. The [translation_cpi] knob only reaches
   the config of [Liquid] variants, so it is normalized out of the key
   everywhere else.

   The table is a bounded exact-LRU [Lru] (it used to be an unbounded
   hashtable — fine for one report run, a leak for the long-lived sweep
   service): the capacity comfortably covers one full experiment
   report's distinct keys, so the reports still see pure lookups, while
   a service that streams millions of distinct jobs through the process
   stays at a flat ceiling. *)

type cache_key = {
  ck_workload : string;
  ck_variant : variant;
  ck_cpi : int;
  ck_fuel : int;
  ck_blocks : bool;
  ck_super : bool;
}

let cache_capacity = 2048
let cache : (cache_key, result) Lru.t = Lru.create ~capacity:cache_capacity
let cache_mutex = Mutex.create ()

let cache_key (w : Workload.t) variant ~translation_cpi ~fuel ~blocks
    ~superblocks =
  {
    ck_workload = w.Workload.name;
    ck_variant = variant;
    ck_cpi =
      (match variant with
      | Liquid _ | Liquid_vla _ | Liquid_rvv _ ->
          Option.value translation_cpi ~default:1
      | Baseline | Liquid_scalar | Liquid_oracle _ | Liquid_vla_oracle _
      | Liquid_rvv_oracle _ | Native _ ->
          1);
    ck_fuel = Option.value fuel ~default:Cpu.scalar_config.Cpu.fuel;
    ck_blocks = blocks;
    ck_super = superblocks;
  }

let run_cached ?translation_cpi ?fuel ?(blocks = true) ?(superblocks = true)
    (w : Workload.t) variant =
  let key = cache_key w variant ~translation_cpi ~fuel ~blocks ~superblocks in
  match Mutex.protect cache_mutex (fun () -> Lru.find cache key) with
  | Some r -> r
  | None ->
      let r = run ?translation_cpi ?fuel ~blocks ~superblocks w variant in
      Mutex.protect cache_mutex (fun () ->
          (* A racing domain may have finished the same key first; its
             entry wins so every caller shares one result. The re-probe
             counts as a second lookup in the cache counters, which is
             what it is. *)
          match Lru.find cache key with
          | Some winner -> winner
          | None ->
              Lru.add cache key r;
              r)

let clear_cache () = Mutex.protect cache_mutex (fun () -> Lru.clear cache)

let cache_counters () =
  Mutex.protect cache_mutex (fun () -> Lru.counters cache)

(* --- domain fan-out --- *)

type 'a failure = { f_index : int; f_item : 'a; f_exn : exn }

(* Per-item crash isolation: each application of [f] is fenced inside
   its worker, so one poisoned item yields [Error] in its slot while
   every other item still comes back [Ok] — a sweep never loses its
   completed results to one bad run. The try sits inside the worker
   loop (not around [Domain.join]), so no exception can escape a
   domain and tear the pool down. *)
let run_many_result ?domains f items =
  let items_a = Array.of_list items in
  let n = Array.length items_a in
  let workers =
    let d =
      match domains with
      | Some d -> d
      | None -> Domain.recommended_domain_count ()
    in
    max 1 (min d n)
  in
  let one i item =
    match f item with
    | r -> Ok r
    | exception e -> Error { f_index = i; f_item = item; f_exn = e }
  in
  if n = 0 then []
  else if workers = 1 then List.mapi one items
  else begin
    let results = Array.make n None in
    let next = Atomic.make 0 in
    let worker () =
      let continue = ref true in
      while !continue do
        let i = Atomic.fetch_and_add next 1 in
        if i >= n then continue := false
        else results.(i) <- Some (one i items_a.(i))
      done
    in
    let spawned = List.init (workers - 1) (fun _ -> Domain.spawn worker) in
    worker ();
    List.iter Domain.join spawned;
    Array.to_list
      (Array.map
         (function Some r -> r | None -> assert false)
         results)
  end

let run_many ?domains f items =
  List.map
    (function Ok r -> r | Error { f_exn; _ } -> raise f_exn)
    (run_many_result ?domains f items)

let snapshot ?collector { variant; program; run } =
  Liquid_obs.Snapshot.of_run ~label:program.Program.name
    ~variant:(variant_name variant) ?collector run

let speedup ~(baseline : Cpu.run) (run : Cpu.run) =
  float_of_int baseline.Cpu.stats.Liquid_machine.Stats.cycles
  /. float_of_int run.Cpu.stats.Liquid_machine.Stats.cycles
