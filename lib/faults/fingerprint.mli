(** FNV-1a fingerprints of architectural state.

    One hash function shared by the golden differential suite (which
    pins its values) and the fault-injection oracle (which compares a
    faulted run against the pure-scalar baseline), so the two observers
    can never disagree about what "identical state" means. *)

open Liquid_prog

val fnv_byte : int -> int -> int
(** One FNV-1a step over the low byte of the second argument. *)

val fnv_int : int -> int -> int
(** Four FNV-1a steps over a little-endian 32-bit word. *)

val regs_hash : int array -> int
(** Hash of the full scalar register file. *)

val regs_hash_masked : mask:bool array -> int array -> int
(** {!regs_hash} with every slot where [mask] is [true] hashed as zero.
    Used by the oracle to exclude dead region scratch (see
    {!Oracle.junk_mask}) while still pinning every live register. *)

val mem_hash : Image.t -> Liquid_machine.Memory.t -> int
(** Hash over every data array's bytes in memory, in image order. *)
