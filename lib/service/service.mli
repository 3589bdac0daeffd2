(** The persistent fault-tolerant sweep server (DESIGN.md §11).

    Jobs — workload × variant × supervision knobs ({!Job.spec}) — arrive
    over a JSONL request/reply protocol ({!serve}) or
    in-process ({!submit} / {!sync}, {!run_script}). Submitted jobs
    queue until a [sync]; the drain dispatches them across the
    {!Liquid_harness.Runner.run_many_result} domain pool, each job
    wrapped in a supervisor:

    - {b deadline}: wall-clock budget per job, with retry backoff
      counted against it, plus the machine's own retired-instruction
      fuel watchdog;
    - {b retry}: transient failures (per
      {!Liquid_pipeline.Diag.classify}) re-attempt with exponential
      {!Backoff} and seed-stable jitter, bounded by the retry budget
      and the deadline;
    - {b breaker}: K consecutive permanent failures of one
      (workload, variant) open a {!Breaker}; open combinations skip
      dispatch entirely;
    - {b degrade}: breaker-open jobs re-run as the scalar [Baseline]
      variant and reply [degraded] — the Liquid SIMD fallback story
      (translation may fail; scalar execution never does);
    - {b shed}: when the queue exceeds the high-water mark the
      lowest-priority job is dropped with an [overloaded] reply;
    - {b dedup}: ok/degraded replies memoize in a bounded LRU keyed by
      {!Job.fingerprint}; a repeat job answers from the cache.

    Every counter lands in {!Metrics}, whose conservation invariant
    ([submitted = ok + degraded + shed + failed]) the service re-checks
    on every metrics emission. Backoff delays go through the [sleep]
    hook — a no-op by default, so tests and scripted runs are
    deterministic and instant; the delays still charge the deadline
    budget as virtual elapsed time. *)

type config = {
  domains : int option;  (** worker domains ([None] = pool default) *)
  retries : int;  (** default transient re-attempts per job *)
  backoff_base_ms : float;
  backoff_factor : float;
  backoff_jitter : float;  (** relative jitter amplitude, [0..1] *)
  deadline_ms : float;  (** default per-job deadline *)
  breaker_threshold : int;  (** consecutive permanent failures to trip *)
  high_water : int;  (** queue depth above which submits shed *)
  dedup_capacity : int;  (** reply-dedup LRU entries *)
  seed : int;  (** jitter seed (shared by every job's backoff draws) *)
  transient_fuel : int;
      (** fuel for forced-transient attempts ([j_transient_attempts]) *)
  sleep : float -> unit;  (** backoff hook, milliseconds; default no-op *)
}

val default_config : config
(** 2 retries, 10 ms base backoff ×4 with 0.25 jitter, 10 s deadline,
    breaker threshold 3, high water 64, 512-entry dedup LRU, seed 1,
    no-op sleep. *)

type t

val create : ?config:config -> unit -> t

val metrics : t -> Metrics.t
val breaker : t -> Breaker.t

val submit : t -> Job.spec -> Liquid_obs.Json.t list
(** Accept one job (counted [submitted]; a [""] id is replaced with a
    generated one). Returns immediately-emittable replies: empty
    normally, or one [shed]/[overloaded] reply when the queue is over
    the high-water mark and a lowest-priority victim — possibly this
    very job — is dropped. *)

val sync : t -> Liquid_obs.Json.t list
(** Drain: dispatch every queued job (priority order, high first;
    submission order within a priority) across the domain pool and
    return their replies in that order. *)

val metrics_json : t -> Liquid_obs.Json.t
(** The ["liquid-service-metrics/1"] document. Raises [Failure] if the
    document fails its own schema validation — the emitter checks
    itself, like {!Liquid_obs.Bench_report.write}. *)


val run_script : ?config:config -> string -> string
(** In-process entry point: feed a whole JSONL script (one request per
    line; blank lines skipped), return the concatenated reply lines.
    An implicit drain runs at end of input, so trailing submitted jobs
    still reply. *)

val serve : ?config:config -> in_channel -> out_channel -> unit
(** The [liquid_cli serve] loop: read request lines until EOF or
    [quit], write reply lines (flushed per request). Ends with the same
    implicit drain as {!run_script}. *)
