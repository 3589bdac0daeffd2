(** Sweep-service jobs: the JSONL wire types.

    A request line is a single JSON object — either a job
    ([{"workload": "171.swim", "variant": "liquid:8", ...}]) or a
    control message ([{"op": "sync" | "metrics" | "quit"}]). A reply
    line is a single JSON object built by {!reply_to_json}. The
    protocol reference lives in docs/ARCHITECTURE.md. *)

(** One job: workload × variant plus supervision knobs. *)
type spec = {
  j_id : string;  (** echoed in the reply; [""] = let the service name it *)
  j_workload : string;  (** registry name, e.g. ["171.swim"] *)
  j_variant : Liquid_harness.Runner.variant;
  j_variant_str : string;  (** canonical spelling, echoed in replies *)
  j_priority : int;  (** larger = more important; shedding drops the lowest *)
  j_fuel : int option;  (** retired-instruction watchdog override *)
  j_deadline_ms : float option;  (** per-job deadline override *)
  j_retries : int option;  (** retry-budget override *)
  j_blocks : bool;  (** translation-block engine knob (default on) *)
  j_superblocks : bool;  (** trace-superblock tier knob (default on) *)
  j_fault_seed : int option;
      (** arm one seeded translation-path fault for the run *)
  j_transient_attempts : int;
      (** force the first N attempts to fail transiently (a tiny fuel
          budget), for exercising the retry path deterministically *)
}

type request =
  | Job of spec
  | Sync  (** drain the queue, emit the pending replies *)
  | Metrics  (** emit the metrics document *)
  | Quit  (** drain, then stop serving *)

val parse_request : string -> (request, string) result
(** Parse one JSONL line. Unknown [op] values, missing [workload],
    malformed variants (including widths above 16 lanes), ill-typed
    fields and negative or non-finite supervision values ([fuel],
    [deadline_ms], [retries], [transient_attempts]) are errors (the
    service counts them as protocol errors, not failed jobs). *)

val fingerprint : spec -> int
(** FNV-1a hash over the semantic job fields — workload, variant, fuel,
    engine knobs, fault seed, forced-transient count — excluding [j_id]
    and [j_priority], which change the envelope but not the result.
    Keys the service's reply-dedup LRU. *)

type status = Ok_ | Degraded | Shed | Failed

val status_name : status -> string

(** One reply line. Counter fields are zero when no run happened
    (shed / failed before execution). *)
type reply = {
  p_id : string;
  p_status : status;
  p_workload : string;
  p_variant : string;  (** the variant the job asked for *)
  p_ran : string;  (** the variant that actually executed (["baseline"]
                       on a degraded reply, [""] when nothing ran) *)
  p_cycles : int;
  p_retired : int;
  p_regs_hash : int;  (** {!Liquid_faults.Fingerprint.regs_hash} *)
  p_mem_hash : int;  (** {!Liquid_faults.Fingerprint.mem_hash} *)
  p_attempts : int;  (** execution attempts consumed (0 on a dedup hit) *)
  p_cached : bool;  (** served from the reply-dedup LRU *)
  p_reason : string option;
      (** why the reply is not a plain [ok]: ["overloaded"],
          ["breaker-open"], ["deadline"], ["retry-exhausted"],
          ["permanent"], ["unknown-workload"], ["supervisor-crash"] *)
  p_diag : string option;  (** last failure detail, when one exists *)
}

val reply_to_json : reply -> Liquid_obs.Json.t
