(** Exact signed dyadic rationals: values of the form [± m / 2^e].

    The paper's interval commodity (Definition 4.1) is built from
    "binary-point numbers of finite representation, i.e., a sum of powers of 2
    with a finite number of summands" — exactly the dyadic rationals.  The
    power-of-two flow rule of Section 3.1 also lives here: all its termination
    values are [2^-k].

    Values are normalized (mantissa odd unless the exponent is zero; zero is
    canonical), so structural equality is numeric equality.

    A value has one of two representations, fixed by its value: a mantissa
    of at most {!int_bits} bits is an immediate machine int, a wider one a
    {!Bignat.t}.  On immediate operands [compare], [add], [sub], [mul],
    [mul_pow2] and [bit_size] are a few int instructions and allocate at
    most the result; they test the aligned width before any shift and fall
    back to {!Bignat} arithmetic when a result could overflow. *)

type t

val zero : t
val one : t
val half : t

val make : ?negative:bool -> Bignat.t -> int -> t
(** [make m e] is [± m / 2^e], normalized. Requires [e >= 0]. *)

val make_int : ?negative:bool -> int -> int -> t
(** [make_int m e] is [make (Bignat.of_int m) e] without building the
    {!Bignat}.  Requires [m >= 0] and [e >= 0]. *)

val of_int : int -> t
val of_bignat : Bignat.t -> t

val int_bits : int
(** [61]: mantissas of at most this many bits are stored as machine ints. *)

val mantissa : t -> Bignat.t
(** Mantissa magnitude of the normal form. *)

val mantissa_bits : t -> int
(** [Bignat.bit_length (mantissa x)], without building the {!Bignat}. *)

val mantissa_int : t -> int
(** Mantissa magnitude as an int.
    @raise Invalid_argument when [mantissa_bits x > int_bits]. *)

val exponent : t -> int
(** Denominator exponent of the normal form: the value is
    [sign * mantissa / 2^exponent]. *)

val pow2 : int -> t
(** [pow2 k] is [2^k]; [k] may be negative. *)

val is_zero : t -> bool
val is_negative : t -> bool
val sign : t -> int

val neg : t -> t
val abs : t -> t
val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t

val mul_pow2 : t -> int -> t
(** [mul_pow2 x k] is [x * 2^k]; [k] may be negative (exact in all cases). *)

val div_pow2 : t -> int -> t
(** [div_pow2 x k] is [x / 2^k]. *)

val compare : t -> t -> int
val equal : t -> t -> bool
val min : t -> t -> t
val max : t -> t -> t

val sum : t list -> t

val midpoint : t -> t -> t
(** Exact average; the canonical way to bisect an interval. *)

val to_rational : t -> Rational.t

val of_rational_opt : Rational.t -> t option
(** [Some d] when the rational's denominator is a power of two. *)

val bit_size : t -> int
(** Bits of a mantissa+exponent encoding; used to measure message sizes and
    label lengths (Theorems 4.3 and 5.1). *)

val to_string : t -> string
(** Exact decimal expansion, e.g. ["0.3125"] for [5/16]. *)

val to_binary_string : t -> string
(** Exact binary-point expansion, e.g. ["0.0101"] for [5/16]. *)

val pp : Format.formatter -> t -> unit

val to_float : t -> float
(** Lossy, for display only. *)
