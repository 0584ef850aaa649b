(** The `qvtr serve` wire protocol: framed JSONL requests/responses.

    One request per line, one response per line, both canonical
    {!Obs.Json} objects. Every request carries a client-chosen [id]
    echoed in its response (responses to one session come back in
    request order; responses across sessions interleave freely), and —
    except for [stats] — a [session] string naming the tenant it
    addresses. The verbs mirror {!Incr.Session} one-to-one:

    {v
    {"id":1,"verb":"open","session":"s1","transformation":"...",
     "metamodels":"...","models":"...","targets":["cf1"],
     "standard":false,"slack":2,"headroom":6}
    {"id":2,"verb":"apply_edits","session":"s1","models":"model cf1 ..."}
    {"id":3,"verb":"recheck","session":"s1","blame":false}
    {"id":4,"verb":"rerepair","session":"s1","limit":16}
    {"id":5,"verb":"commit","session":"s1","choice":0}
    {"id":6,"verb":"snapshot","session":"s1"}
    {"id":7,"verb":"close","session":"s1"}
    {"id":8,"verb":"stats"}
    v}

    [apply_edits] carries a {e model snapshot}, not an edit list: one
    or more model blocks in {!Mdl.Serialize} concrete syntax, which the
    server diffs against the session's current state (parameters not
    restated are unchanged) — exactly a block of a {!Replay} script,
    so an editor can send "what the models look like now" after every
    save.

    This module is the codec only; {!Engine} interprets requests and
    {!Net} frames them over a socket. {!Replay}, the driver of the
    [qvtr session] CLI, sends {!Engine} these same request values, so
    CLI and wire semantics cannot drift. *)

type open_spec = {
  o_transformation : string;  (** QVT-R concrete syntax *)
  o_metamodels : string;  (** [metamodel] blocks, {!Mdl.Serialize} *)
  o_models : string;  (** [model] blocks, one per parameter *)
  o_targets : string list;  (** repairable parameters; [[]] = all *)
  o_standard : bool;  (** OMG standard checking semantics *)
  o_slack : int;  (** {!Incr.Session.open_session} [slack_budget] *)
  o_headroom : int;
}

type request =
  | Open of open_spec
  | Apply_edits of { models : string }
  | Recheck of { blame : bool }
  | Rerepair of { limit : int }
  | Commit of { choice : int }  (** index into the last rerepair menu *)
  | Snapshot  (** force a durable snapshot; the session stays live *)
  | Close
  | Stats

type req = {
  q_id : int;
  q_session : string;  (** [""] for {!Stats} *)
  q_req : request;
}

type verdict = {
  w_relation : string;
  w_sources : string list;
  w_target : string;
  w_holds : bool;
  w_blame : (string * string list * bool) list;
      (** fact relation, atom tuple, and whether the models contain
          it ({!Incr.Session.fact}); on the wire each entry is
          [{"relation", "atoms", "present"}], and a missing
          ["present"] decodes as [true] *)
}

type menu_entry = {
  m_relational_distance : int;
  m_edit_distance : int;
  m_models : (string * string) list;
      (** target parameter -> repaired model, serialized *)
}

type payload =
  | Opened of { revived : bool }
      (** [revived]: the session was resurrected from a snapshot
          rather than freshly opened (never on [open] itself; see
          {!Engine}) *)
  | Applied of { edits : int }  (** edit operations in the diff *)
  | Checked of {
      consistent : bool;
      verdicts : verdict list;
      stats : Incr.Session.step_stats;
    }
  | Repaired of {
      outcome : string;
          (** ["repaired"], ["already_consistent"] or
              ["cannot_restore"] *)
      menu : menu_entry list;
      stats : Incr.Session.step_stats;
    }
  | Committed
  | Snapshotted of { path : string; fingerprint : string }
  | Closed
  | Stats_snapshot of Obs.Json.t

type resp = {
  s_id : int;
  s_result : (payload, string) result;
}

val verb_of_request : request -> string

val request_to_json : req -> Obs.Json.t
val request_to_string : req -> string

val request_of_json : Obs.Json.t -> (req, string) result
val parse_request : string -> (req, string) result
(** Strict parse of one frame line. Unknown verbs, missing mandatory
    fields and type mismatches are reported with the offending field;
    the [id] is recovered whenever the frame is an object with an
    integer [id], so the server can still address its error reply. *)

val step_stats_to_json : Incr.Session.step_stats -> Obs.Json.t

val response_to_json : verb:string -> resp -> Obs.Json.t
val response_to_string : verb:string -> resp -> string
(** [verb] tags the response object (["verb"] field) so clients can
    dispatch without correlating ids themselves. *)

val response_of_json : Obs.Json.t -> (resp, string) result
val parse_response : string -> (resp, string) result
