(** Rational arithmetic on native integers, without rounding.

    Used only to *generate* Winograd transformation matrices (interpolation
    points and Lagrange coefficients are tiny, so native ints never come close
    to overflow there), after which everything is converted to floats.
    Normalised form: the denominator is positive and gcd(num, den) = 1. *)

type t

val zero : t
val one : t
val of_int : int -> t
val make : int -> int -> t
(** [make num den]; raises [Division_by_zero] when [den = 0]. *)

val num : t -> int
val den : t -> int

val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val div : t -> t -> t
(** [div] raises [Division_by_zero] on a zero divisor. *)

val neg : t -> t
val equal : t -> t -> bool
val is_zero : t -> bool
val compare : t -> t -> int
val to_float : t -> float
val to_string : t -> string
