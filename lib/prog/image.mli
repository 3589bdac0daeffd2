(** Executable images: programs after layout and symbol resolution.

    Layout places code at {!code_base} with 4 bytes per instruction slot
    (matching the fixed-width 32-bit encoding of {!Encode}) and data
    arrays in a separate segment, each aligned to the maximum
    vectorizable width times the element size (paper §3.1). Branch
    targets become instruction indices; data symbols become absolute
    addresses. *)

open Liquid_visa

exception Layout_error of string

type t = {
  name : string;
  code : Minsn.exec array;
  addrs : int array;
      (** fetch address of each slot, precomputed at layout:
          [addrs.(i) = code_base + 4*i]. The per-fetch hot path indexes
          this instead of recomputing {!addr_of_index}. *)
  code_base : int;
  entry : int;  (** instruction index where execution starts *)
  labels : (string * int) list;  (** label name -> instruction index *)
  arrays : (string * int * Data.t) list;  (** name, address, contents *)
  data_bytes : int;  (** total data-segment footprint including alignment *)
  region_entries : (int * string) list;
      (** targets of region-marked branch-and-link instructions:
          instruction index -> region label *)
}

val code_base : int
val data_base : int

val of_program : Program.t -> t
(** Raises {!Layout_error} when {!Program.validate} fails, when the entry
    label is missing (the program must define [main] or start with its
    first instruction), or when a field exceeds encodable range. *)

val load_memory : t -> Liquid_machine.Memory.t -> unit
(** Write every data array's initial contents into memory. *)

val addr_of_index : t -> int -> int
val index_of_addr : t -> int -> int
val find_label : t -> string -> int option
val array_addr : t -> string -> int
(** Raises [Not_found] for unknown arrays. *)

val array_at : t -> int -> (string * Data.t) option
(** The array whose storage contains the given address, if any. *)

val pp : Format.formatter -> t -> unit
