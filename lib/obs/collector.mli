(** The trace-side half of the observability layer: a consumer for
    {!Liquid_pipeline.Cpu.config.on_trace} that feeds

    - the translation-latency histogram (one sample per completed
      translation, from [T_translation] events);
    - a zero-allocation ring buffer holding the most recent trace
      records in packed-int form (post-mortem window, cheap enough to
      leave attached on the hot path);
    - an optional JSONL file sink that streams region-level events
      (calls, translations, aborts) one JSON object per line.

    Attach with {!wrap} (or {!attach}), run the machine, then hand the
    collector to {!Snapshot.of_run} so the histograms land in the
    snapshot. *)

open Liquid_pipeline

type t

val create : ?ring_capacity:int -> ?jsonl:out_channel -> unit -> t
(** [ring_capacity] defaults to 1024 records. [jsonl], when given,
    receives one compact JSON line per region-level event; the channel
    is not closed by the collector. *)

val on_trace : t -> Cpu.trace_event -> unit

val wrap : t -> Cpu.config -> Cpu.config
(** Install {!on_trace} into a config, chaining after any hook already
    present (the existing consumer still sees every event). *)

val translation_latency : t -> Hist.t
val ring : t -> Ring.t
val events : t -> int
(** Total trace events observed. *)
