(** 32-bit two's-complement machine words represented as OCaml [int]s.

    Every operation returns a canonical value in
    [[-2{^31}, 2{^31} - 1]]. Shift amounts are taken modulo 32, matching
    typical barrel-shifter behaviour. *)

type t = int

val of_int : int -> t
(** Wrap an arbitrary integer into the 32-bit signed range. *)

val add : t -> t -> t
val sub : t -> t -> t
val rsb : t -> t -> t
(** [rsb a b] is [b - a] (reverse subtract). *)

val mul : t -> t -> t
val logand : t -> t -> t
val logor : t -> t -> t
val logxor : t -> t -> t
val bic : t -> t -> t
(** [bic a b] is [a land (lnot b)] (bit clear). *)

val shl : t -> t -> t
val shr : t -> t -> t
(** Logical (unsigned) right shift. *)

val sar : t -> t -> t
(** Arithmetic right shift. *)

val smin : t -> t -> t
val smax : t -> t -> t

val sat_add : Esize.t -> signed:bool -> t -> t -> t
(** Saturating addition at the given element width. Matches the scalar
    clamp idiom exactly: the 32-bit wrapped sum is clamped to
    [[min_signed, max_signed]] when [signed], and only against
    [max_unsigned] (no low bound) otherwise. *)

val sat_sub : Esize.t -> signed:bool -> t -> t -> t
(** Saturating subtraction; the unsigned form clamps the wrapped
    difference only at zero, mirroring the one-sided scalar idiom. *)

val clamp : Esize.t -> signed:bool -> t -> t
(** Clamp into the representable range of the element type. *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
