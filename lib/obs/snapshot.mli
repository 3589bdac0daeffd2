(** One typed record holding every observable of a finished run — the
    single place the rest of the system (benchmarks, CLI, tests) reads
    telemetry from.

    A snapshot folds together the run-level {!Liquid_machine.Stats}
    counters, the internal tallies of each hardware unit (instruction
    and data {!Liquid_machine.Cache}, {!Liquid_machine.Branch_pred},
    {!Liquid_pipeline.Ucode_cache}), the per-region timelines, and three
    histograms (translation latency, inter-call gap, installed region
    uop count). {!violations} then checks the conservation invariants
    that tie those layers together; any counter drift between [Stats]
    and a unit's own tally — a second writer sneaking back in — comes
    out as a named violation instead of a silently wrong table. *)

open Liquid_machine
open Liquid_pipeline

type region = {
  r_label : string;
  r_entry : int;
  r_calls : int;  (** executions of the region (scalar + microcode) *)
  r_ucode_served : int;  (** executions substituted from the microcode cache *)
  r_scalar_calls : int;  (** [r_calls - r_ucode_served] *)
  r_outcome : string;  (** ["untried"], ["installed"] or ["failed: <abort>"] *)
  r_width : int;  (** installed lane width; 0 otherwise *)
  r_uops : int;  (** installed microcode length; 0 otherwise *)
}

type t = {
  s_label : string;
  s_variant : string;
  s_stats : Stats.t;  (** detached copy — safe to hold *)
  s_icache : Cache.counters option;
  s_dcache : Cache.counters option;
  s_bpred : Branch_pred.counters;
  s_ucache : Ucode_cache.counters;
  s_regions : region list;
  s_superblocks_compiled : int;
      (** trace superblocks formed by the block engine's trace tier *)
  s_superblock_iters : int;  (** whole loop iterations run through one *)
  s_superblock_bailouts : int;
      (** superblock exits back to the block path (guard fails + fuel) *)
  s_pred_fast : int;
      (** predicated vector executions on the all-true fast path *)
  s_pred_masked : int;
      (** predicated vector executions through the masked path *)
  s_governed_execs : int;
      (** count-governed uops dispatched — the independent tally the
          fast/masked split must account for *)
  s_permutes_seen : int;
      (** permutation slots the translator resolved across all sessions *)
  s_permutes_recovered : int;
      (** permutations lowered to a native [Vperm] or a VLA table lookup *)
  s_permutes_aborted : int;
      (** permutations that killed their translation session — the
          independent tally recovery must account for *)
  s_tbl_index_builds : int;
      (** runtime index-table materialisations ([Tblidx] executions) —
          once per region call and recovered pattern on the VLA backend *)
  s_latency_hist : Hist.t;
      (** translation latency in cycles, one sample per completed
          translation; populated only when a {!Collector} observed the
          run (empty otherwise) *)
  s_gap_hist : Hist.t;
      (** inter-call gap in cycles — [start(k+1) - end(k)] over each
          region's consecutive executions (paper Table 6's measure) *)
  s_uops_hist : Hist.t;  (** installed region microcode lengths *)
}

val of_run :
  ?label:string -> ?variant:string -> ?collector:Collector.t -> Cpu.run -> t

val violations : t -> string list
(** Empty iff every conservation invariant holds:
    - [insn-conservation]: retired scalar + vector instructions equal
      image fetches + microcode uops;
    - [icache-mirror] / [icache-fetches]: [Stats.icache_*] equals the
      instruction cache's own tally, and hits + misses equal fetches;
    - [dcache-mirror]: same for the data cache;
    - [branch-mirror]: [Stats.branches]/[branch_mispredicts] equal the
      predictor's lookups/mispredicts (and mispredicts <= lookups);
    - [region-calls]: region executions summed over regions equal
      [Stats.region_calls], and ucode hits + scalar executions account
      for every call;
    - [ucode-hits]: per-region served counts sum to [Stats.ucode_hits];
    - [ucache-mirror]: [Stats.ucode_installs]/[ucode_evictions] equal
      the microcode cache's own tally;
    - [ucache-occupancy]: installs = replacements + evictions +
      occupancy, occupancy <= high-water mark;
    - [translation-sessions]: every started session ends in exactly one
      install or abort (at most one session still open at halt);
    - [gap-samples]: the inter-call-gap histogram holds exactly one
      sample per consecutive call pair;
    - [pred-conservation]: every dispatched predicated vector uop took
      exactly one of the all-true fast path or the masked path
      ([pred_fast + pred_masked = dispatched]);
    - [perm-conservation]: every permutation the translator saw was
      either recovered or aborted the session
      ([recovered + aborted = seen]). *)

val to_json : t -> Json.t
(** Schema ["liquid-obs-snapshot/1"]; validated by {!Schema.snapshot}.
    Includes the invariant verdict, so an emitted report carries its own
    consistency check. *)

val to_csv : t -> string
(** Flat [key,value] rows covering the same content (histograms as
    count/total/min/max/mean plus per-bucket rows). *)
