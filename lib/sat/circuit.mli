(** Hash-consed boolean circuits.

    The relational translation ({!Relog.Translate}) produces boolean
    formulas with massive sharing (the same sub-matrix entry appears in
    many composite expressions). Circuits are hash-consed so shared
    subterms are built — and later CNF-encoded — exactly once.

    Constructors perform light simplification: constant folding,
    flattening of nested [And]/[Or], unit absorption and
    double-negation elimination. *)

type t
(** A circuit node. Nodes from the same {!builder} with equal structure
    are physically equal. *)

type view =
  | True
  | False
  | Input of Lit.t
  | Not of t
  | And of t array
  | Or of t array

type builder
(** The hash-consing context. *)

val builder : unit -> builder

val view : t -> view
val id : t -> int
(** Unique id within a builder; usable as a hash key. *)

val tru : builder -> t
val fls : builder -> t
val input : builder -> Lit.t -> t
val not_ : builder -> t -> t
val and_ : builder -> t list -> t
val or_ : builder -> t list -> t
val implies : builder -> t -> t -> t
val iff : builder -> t -> t -> t

val is_true : t -> bool
val is_false : t -> bool

val size : t -> int
(** Number of distinct nodes reachable from this node. *)

val pp : Format.formatter -> t -> unit
