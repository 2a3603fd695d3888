(** Decision-provenance journal.

    Spans answer "where did the time go"; the journal answers "which
    decisions were made and why": per-candidate engine outcomes
    (hit / built / unfit / deduplicated / infeasible), solver incumbent
    improvements, static-bound tightness.  Consumers
    ([reconfigure --explain], the fuzz oracle) aggregate the raw
    stream into reports.

    Off by default; a disabled {!record} is one atomic load.  Each
    domain appends to its own buffer, so recording inside
    {!Dse.Pool} workers needs no locks and each buffer is
    monotonically timestamped by construction.  When {!Trace}
    recording is also enabled, every journal event is mirrored into
    the Chrome trace as an instant event (category ["journal"]). *)

type event = {
  ts_ns : int64;  (** monotonic, relative to process start *)
  tid : int;  (** recording domain's id *)
  kind : string;  (** e.g. ["binlp.incumbent"], ["engine.hit"] *)
  fields : (string * Json.t) list;
}

val set_enabled : bool -> unit
val enabled : unit -> bool

val record : kind:string -> (string * Json.t) list -> unit
(** Append to the current domain's buffer when enabled, else no-op.
    Callers building expensive field lists should guard with
    {!enabled} to avoid the allocation. *)

val events : unit -> event list
(** Merge every domain's buffer, stably sorted by [ts_ns]. *)

val events_by_domain : unit -> (int * event list) list
(** Per-buffer view in append order (oldest first), for invariant
    checks: each domain's list must be monotonically timestamped. *)

val clear : unit -> unit

val to_json : event -> Json.t
(** [{"ts_us": ..., "tid": ..., "kind": ..., "fields": {...}}]. *)
