(** Monomials [c * x1^a1 * ... * xn^an] with [c > 0] over named variables.

    Monomials are the atoms of posynomials and the only functions a
    geometric program admits as equality constraints.  Variables are
    identified by name (size labels such as ["P1"], slope variables such as
    ["slope:out"]). *)

type t
(** Immutable monomial with strictly positive coefficient. *)

val const : float -> t
(** [const c] is the constant monomial [c]; requires [c > 0]. *)

val var : string -> t
(** [var x] is the monomial [x]. *)

val make : float -> (string * float) list -> t
(** [make c exps] is [c * prod x_i^e_i]; requires [c > 0].  Duplicate
    variables have their exponents summed; zero exponents are dropped.
    The coefficient is recorded as corner-invariant (RC degree 0). *)

val make_deg : deg:float -> float -> (string * float) list -> t
(** Like {!make}, but records the whole coefficient at RC degree [deg]:
    at a corner whose R and C values are the nominal ones times [s], the
    coefficient becomes [c * s^deg].  Constraint generation tags its
    resistance and capacitance leaves with [~deg:1.]; every derived
    coefficient then carries an exact degree decomposition maintained by
    {!mul}, {!pow}, {!scale} and posynomial merging. *)

val of_normalised : float -> (string * float) list -> (float * float) list -> t
(** [of_normalised c exps rc] is [make c exps] carrying the RC
    decomposition [rc] (equal degrees merged, sorted by degree; [[]]
    marks it lost).  [exps] must already be in normal form — the
    {!exponents} of some monomial — and is not normalised again.  Used
    by posynomial merging to sum coefficients and decompositions; not
    meant for general use. *)

val rc : t -> (float * float) list
(** The coefficient's decomposition by RC degree, [(degree, partial)]
    sorted by degree with the partials summing to {!coeff}.  [[]] when
    the decomposition was lost (an operation could not maintain it);
    {!project} and {!coeff_at} then return [None]. *)

val coeff_at : float -> t -> float option
(** [coeff_at s m] is the coefficient at corner scale [s]:
    [sum_d c_d * s^d].  [None] when the decomposition is lost.  At
    [s = 1.] this is exactly {!coeff}. *)

val project : float -> t -> t option
(** [project s m] is the monomial re-anchored at corner scale [s]: same
    exponents, coefficient {!coeff_at}[ s m].  Identity at [s = 1.];
    [None] when the decomposition is lost. *)

val coeff : t -> float
val exponents : t -> (string * float) list
(** Sorted by variable name; no zero exponents, no duplicates. *)

val degree_of : t -> string -> float
(** Exponent of a variable (0 when absent). *)

val mul : t -> t -> t
val div : t -> t -> t
val pow : t -> float -> t
val scale : float -> t -> t
(** [scale a m] multiplies the coefficient; requires [a > 0]. *)

val inv : t -> t
val is_const : t -> bool
val vars : t -> string list

val eval : (string -> float) -> t -> float
(** Evaluate under a positive assignment. *)

val subst : string -> t -> t -> t
(** [subst x m' m] replaces variable [x] by monomial [m'] in [m]. *)

val equal : t -> t -> bool
val compare : t -> t -> int
val pp : Format.formatter -> t -> unit
val to_string : t -> string
