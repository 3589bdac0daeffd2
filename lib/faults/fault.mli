(** The fault taxonomy and the seeded deterministic injector.

    Every fault attacks the {e translation} path of the Liquid SIMD
    machine — the part the paper claims may fail at any point without
    affecting correctness (HPCA 2007 §3.2/§4.2). None of them touch the
    executed scalar stream, so the scalar-equivalence oracle
    ({!Oracle}) must hold after any of them. *)

open Liquid_translate
open Liquid_pipeline

(** Deterministic splitmix64 generator: campaigns are reproducible from
    a single integer seed. *)
module Rng : sig
  type t

  val make : int -> t
  val next : t -> int64
  val int : t -> int -> int
  (** [int t bound] is uniform in [\[0, bound)]; [bound] must be > 0. *)

  val pick : t -> 'a list -> 'a
end

type t =
  | Force_abort of { site : int; abort : Abort.t }
      (** inject [abort] into the live translation session at the
          [site]-th instruction the translator observes (a global index
          across all sessions of the run) *)
  | Corrupt_feed of { site : int }
      (** replace the [site]-th observed instruction with an
          untranslatable one — a decode glitch on the translation path *)
  | Evict_ucode of { call : int }
      (** evict the region's microcode entry just before the [call]-th
          region call of the run *)
  | Exhaust_fuel of { budget : int }
      (** run with a retired-instruction watchdog of [budget]; the run
          must stop with a structured [Fuel_exhausted] diagnostic *)

val to_string : t -> string
val pp : Format.formatter -> t -> unit

type armed = {
  hooks : Cpu.fault_hooks option;  (** to place in {!Cpu.config.faults} *)
  fuel : int option;  (** watchdog override, for {!Exhaust_fuel} *)
  fired : unit -> int;  (** how many times the fault actually triggered *)
}

val arm : t -> armed
(** Compile a fault into CPU hooks closing over their own trigger
    counters. Arm a fresh value per run — [armed] is single-use. *)

type space = {
  sp_feeds : int;  (** translator feed events across the whole run *)
  sp_calls : int;  (** region calls across the whole run *)
  sp_retired : int;  (** instructions retired by the clean run *)
}

val counting_hooks : unit -> Cpu.fault_hooks * int ref
(** Probe hooks: inject nothing, count translator feed events. Used to
    measure the addressable site space of a clean run. *)
