(** Canonical JSON value, printer and strict parser.

    The toolchain has no JSON library. This is the single shared
    implementation: the metrics snapshot, the server protocol and
    snapshots, the request log, the Chrome trace sink and the JSONL
    event log all go through it. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val escape_string : string -> string
(** JSON string-body escaping. ["\""], ["\\"], [\b \f \n \r \t] get
    their two-character escapes; every other control character below
    [0x20] becomes [\uXXXX]. (The pre-[lib/obs] emitter forgot [\b] and
    [\f] — they round-tripped as []/[], which strict
    parsers accept but which this module now emits canonically.) *)

val emit : Buffer.t -> t -> unit
(** Compact (single-line) serialization. Floats print as [%.6f];
    non-finite floats clamp to [null] (JSON has no NaN/Infinity). *)

val to_string : t -> string

val of_string : string -> (t, string) result
(** Strict parser for the subset this module emits (and standard JSON
    in general: all escapes incl. [\uXXXX], exponent floats, nested
    arrays/objects). Rejects trailing garbage. Used by tests to
    round-trip trace files without a Python dependency; numbers with
    [.], [e] or [E] parse as [Float], others as [Int]. *)

val member : string -> t -> t
(** [member k (Obj ...)] is the value bound to [k], or [Null] when
    absent or when the value is not an object. *)

val to_list : t -> t list
(** The elements of a [List], or [[]] for any other value. *)

(** Typed accessors, [None] on a value of any other shape — the
    pattern every JSON-protocol consumer (the transformation server's
    request decoder, the test clients) otherwise re-rolls. *)

val to_string_opt : t -> string option
val to_int_opt : t -> int option
val to_bool_opt : t -> bool option
