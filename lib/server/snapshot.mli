(** Durable session snapshots — the eviction/resurrection format.

    A snapshot is one canonical JSON object:

    {v
    {"format":"mdqvtr-snapshot/1",
     "fingerprint":"<md5 hex of the payload text>",
     "payload":{"transformation":...,"metamodels":...,"models":...,
                "targets":[...],"standard":...,"slack":...,
                "headroom":...,"values":[...]}}
    v}

    The payload is a {!Protocol.open_spec} whose [o_models] are the
    session's {e current} (post-edit) models re-serialized with
    {!Mdl.Serialize}, plus the session's accumulated value universe
    ({!Incr.Session.value_universe}, encoded with
    {!Mdl.Serialize.value_of_string}'s inverse). Reviving re-opens the
    session over those models with the values as [extra_values], so
    the resurrected session searches {e exactly} the space the evicted
    one did: identical verdicts, menus and distances — the property
    the test suite checks.

    [of_string] rejects an unknown [format] version and a fingerprint
    that does not match the payload (bit-rot, manual edits) with
    errors naming what was expected. *)

type t = {
  spec : Protocol.open_spec;  (** with current models substituted *)
  values : Mdl.Value.t list;  (** the session's value universe *)
  fingerprint : string;  (** md5 hex over the canonical payload *)
}

val format_version : string
(** ["mdqvtr-snapshot/1"]. *)

val of_session :
  spec:Protocol.open_spec -> Incr.Session.t -> t
(** Capture a live session. [spec] is the session's original open
    spec; its [o_models] are replaced by the session's current models
    and [values] by its value universe. *)

val to_string : t -> string
val of_string : string -> (t, string) result

val save : dir:string -> name:string -> t -> (string, string) result
(** Write atomically (temp file + rename) as [dir/<sanitized name>.snap],
    creating [dir] if needed; returns the path. *)

val load : string -> (t, string) result
(** Read and validate a snapshot file. *)

val hydrate :
  ?extra_values:Mdl.Value.t list ->
  Protocol.open_spec ->
  (Incr.Session.t * Mdl.Metamodel.t list, string) result
(** Parse an open spec's texts and open an {!Incr.Session} over them
    — the one code path behind both the [open] verb and snapshot
    revival (which passes the snapshot's [values] as
    [extra_values]). Empty [o_targets] selects every parameter. *)

val revive : t -> (Incr.Session.t * Mdl.Metamodel.t list, string) result
(** [hydrate ~extra_values:t.values t.spec]. *)
