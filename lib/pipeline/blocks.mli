(** The translation-block engine: pre-decoded straight-line execution,
    closure-compiled micro-ops and trace superblocks.

    Lazily compiles maximal straight-line runs of the image's
    {!Liquid_visa.Minsn.t} stream — ending at branches, region calls,
    [Halt], and vector/scalar mode changes — into flat arrays of
    specialized closures: operand register indices, folded immediates,
    opcode dispatch, element decode/encode, per-slot charge amounts
    (base cycle, [mul_extra], intra-block load-use stalls, static vector
    bus beats) and pre-grouped icache line probes, all baked at compile
    time, so replay is one [unit -> unit] call per micro-op. Stat deltas
    are applied once per block exit instead of once per instruction;
    unconditional fallthrough/jump edges chain block-to-block without
    returning to the dispatcher. Microcode replay ({!exec_ucode})
    receives the same treatment per cache entry, invalidated by
    {!Ucode_cache.stamp_of} stamp when a region is retranslated.

    On top of the blocks sits the superblock tier: when a block's
    conditional back-edge has fired a fixed number of times, the loop
    body across the edge is flattened into a trace — the member blocks'
    closures concatenated in trace order — and steady-state iterations
    execute whole loop bodies at a time with one batched stat delta per
    logical iteration. The latch condition, re-evaluated after every
    iteration, guards the trace; when it fails (or fuel could expire
    inside the next iteration) the superblock bails out to the ordinary
    block path. Traces follow only unconditional edges, so the guard is
    the sole conditional inside a trace.

    The engine is an execution strategy, not a semantics change: every
    architectural value and every counter is bit-identical to the
    step-by-step engine. {!Cpu} only dispatches here when fidelity
    permits — no trace consumer, no fault hooks, and enough fuel for the
    whole block — and falls back to [step] otherwise. A live translator
    session is observed on blocks ({!try_exec_observed}); control flow
    (region calls, returns, halts) is always stepped. A micro-op that
    raises (vector [Sigill]) repairs the partial per-step accounting
    before re-raising, so escaping diagnostics also match. *)

open Liquid_isa
open Liquid_machine
open Liquid_prog
open Liquid_translate

type t

val create :
  image:Image.t ->
  ctx:Sem.ctx ->
  stats:Stats.t ->
  icache:Cache.t option ->
  dcache:Cache.t option ->
  bpred:Branch_pred.t ->
  mem_latency:int ->
  mul_extra:int ->
  mispredict_penalty:int ->
  vec_bus_bytes:int ->
  lanes:int option ->
  max_uops:int ->
  fuel:int ->
  superblocks:bool ->
  t
(** The engine shares the run's mutable machine state ([ctx], [stats],
    caches, predictor) with {!Cpu}; the scalar knobs are copied from the
    config at creation. [superblocks] gates trace formation only — with
    it off the engine never forms or runs a trace and behaves exactly
    like the PR-4 block engine. *)

val try_exec : t -> pc:int -> retired:int -> pending:Reg.t option -> bool
(** Execute the block starting at [pc] (compiling it on first visit),
    chaining through unconditional successors. [retired] and [pending]
    (the load-use hazard register) are the dispatcher's current values;
    on [true] the caller must read back {!out_pc}, {!out_retired} and
    {!out_pending}. [false] means no block starts here (region call,
    return, halt, wild pc, vector code without an accelerator) or the
    fuel budget could expire inside the block — the caller steps
    faithfully. If a micro-op raises, partial accounting is repaired and
    the out-fields are valid for diagnostics before the exception
    propagates. *)

val try_exec_observed :
  t ->
  Translator.t ->
  pc:int ->
  retired:int ->
  pending:Reg.t option ->
  interrupt_at:int ->
  bool
(** {!try_exec} under a live translator session: each retired
    instruction is fed to the session through {!Translator.observe}
    with the same pc, instruction and value [step] would feed. Runs
    scalar blocks only, and only blocks that cannot reach
    [interrupt_at] (the cycle at which the dispatcher's next interrupt
    fires; [max_int] when interrupts are off), so the session observes
    exactly the stepped stream. Superblocks are neither run nor warmed
    here. [false] means the caller steps. *)

val out_pc : t -> int
val out_retired : t -> int
val out_pending : t -> Reg.t option

type uresult =
  | U_done  (** the replay retired its [URet] *)
  | U_resume of int
      (** continue interpreting at this uop index: the segment there was
          declined, would exhaust the fuel budget, or the index is out
          of range (the interpreted loop raises the exact diagnostic) *)

val exec_ucode :
  t -> entry:int -> stamp:int -> retired:int -> Ucode.t -> uresult
(** Replay translated microcode through pre-compiled straight-line
    segments. [stamp] is the microcode cache's install stamp for the
    entry ([-1] for oracle microcode); a mismatch recompiles, so a
    retranslated region never replays stale segments. The caller sets
    [ctx.lanes] to the microcode width first (as for the interpreted
    loop) and reads back {!out_retired} afterwards — also when this
    raises. *)

val built : t -> int
(** Blocks compiled so far (telemetry). *)

val execs : t -> int
(** Block executions so far, chained blocks included (telemetry).
    Superblock iterations are counted separately in {!super_iters}, not
    here — the two engines legitimately differ on this counter. *)

val supers_built : t -> int
(** Trace superblocks formed so far (telemetry). *)

val super_iters : t -> int
(** Whole loop iterations executed through a superblock (telemetry). *)

val super_bailouts : t -> int
(** Superblock exits back to the block path: guard failures (the loop's
    normal exit through the trace) plus fuel-pressure bail-outs
    (telemetry). *)

val session_insns : t -> int
(** Instructions this engine fed to translator sessions
    ({!try_exec_observed}). *)

val governed_execs : t -> int
(** Count-governed micro-ops ({!Liquid_visa.Governed.reads_count})
    dispatched by this engine — the engine's share of the obs
    conservation invariant [pred_fast + pred_masked = dispatched
    governed ops]. *)

(** {1 Static charges}

    The cycles an instruction costs before it executes, shared by the
    block engine and {!Cpu}'s stepping interpreter so both charge
    identically. *)

val vector_charge : mul_extra:int -> bus:int -> lanes:int -> Liquid_visa.Vinsn.exec -> int
(** Issue cycle, multiply and reduction extras, and the bus beats of a
    memory access at [lanes] lanes over a [bus]-byte vector bus. *)

val governed_charge :
  mul_extra:int -> bus:int -> lanes:int -> Liquid_visa.Governed.t -> int
(** {!vector_charge} of a governed op's full-width form, gather-style
    beats ([1 + lanes * ceil(esize / bus)]) for a table lookup, and one
    cycle for count management. *)
