(** The middleware pipeline (paper Fig. 7): RXL view → view tree →
    partition → SQL texts → RDBMS → sorted tuple streams → merge/tag →
    XML.

    Execution goes through the production path end to end: the generated
    SQL is printed to text, re-parsed by the engine, executed, and timed;
    the result reports wall-clock query time, deterministic work units,
    and the modeled client-transfer time, mirroring the paper's
    Query-time / Total-time split. *)

type prepared = {
  db : Relational.Database.t;
  view : Rxl.view;
  tree : View_tree.t;
  labels : Xmlkit.Dtd.multiplicity array;
  stats : Relational.Stats.t Lazy.t;
      (** statistics pinned for this view.  {!prepare} leaves it
          unforced, and the middleware never forces it: read it through
          {!stats_of}.  A caller pins statistics with [Lazy.from_val]. *)
}

val prepare : Relational.Database.t -> Rxl.view -> prepared
val prepare_text : Relational.Database.t -> string -> prepared

val stats_of : prepared -> Relational.Stats.t
(** The statistics greedy planning, cost annotation and explain use:
    the pinned value when [stats] already holds one, otherwise the
    database's shared {!Relational.Stats.of_database} — analyzed on the
    first need per database version, never at {!prepare}. *)

val with_skew : prepared -> (string * float) list -> prepared
(** [with_skew p [(table, factor); ...]] pins a private copy of
    [stats_of p] with each table scaled by {!Relational.Stats.scale_table}
    — the stale-catalog fixture of [--skew-stats].  Greedy planning,
    annotation and diagnostics of the result see the skew; the shared
    catalog does not change. *)

(** How to choose the partition. *)
type strategy =
  | Unified  (** one SQL query (all edges kept) *)
  | Fully_partitioned  (** one SQL query per view-tree node *)
  | Edges of int  (** explicit edge mask *)
  | Greedy of Planner.params  (** the paper's plan-generation algorithm *)

val partition_of : prepared -> strategy -> Partition.t

(** Per-stream breakdown: every sub-query of a partition gets its own
    record, so callers can see where inside a plan the work went rather
    than only the sum.  Both entry points fill it the same way. *)
type stream_exec = {
  se_stream : Sql_gen.stream;
  se_sql : string;
  se_plan : Relational.Physical.plan;
      (** the executed physical plan, with actual rows/work per
          operator filled in *)
  se_stats : Relational.Executor.stats;
  se_wall_ms : float;
  se_rows : int;
  se_bytes : int;
  se_transfer_ms : float;
}

(** What resilience cost during one {!execute_streaming} run: counters
    summed over the per-stream forked backends
    ({!Relational.Backend.fork}), plus the number of streams that had
    to be degraded to finer fragments.  All deterministic for a fixed
    fault seed, and identical at every domain count; all zero for
    {!execute}, which submits to the engine directly. *)
type resilience = {
  r_submits : int;  (** logical sub-query submissions, incl. degraded re-runs *)
  r_attempts : int;  (** physical attempts, including retries *)
  r_retries : int;
  r_faults : int;  (** injected faults that fired (any kind) *)
  r_timeouts : int;  (** work-budget exhaustions *)
  r_degraded : int;  (** streams split into finer fragments *)
  r_backoff_ms : float;  (** total (virtual) backoff slept *)
  r_wasted_work : int;  (** engine work burned by failed attempts *)
}

(** The result of running one plan; ['a] holds each stream's rows. *)
type 'a run = {
  streams : (Sql_gen.stream * 'a) list;  (** in plan order *)
  per_stream : stream_exec list;  (** one entry per sub-query, in plan order *)
  sql_texts : string list;
  query_wall_ms : float;  (** measured engine time *)
  transfer_ms : float;  (** modeled client-transfer time *)
  work : int;  (** deterministic engine work units — sum over [per_stream] *)
  tuples : int;
  bytes : int;
  resilience : resilience;
}

type execution = Relational.Relation.t run

(** Spooled cursors are single-use: exactly one of
    {!document_of_streaming}, {!xml_string_of_streaming} or
    {!stream_to_channel} may consume a given value. *)
type streaming = Relational.Cursor.t run

val total_wall_ms : 'a run -> float
(** query + transfer, the paper's Total time. *)

(** Which sub-query exceeded the budget, and where it sat in the plan. *)
type timeout_info = {
  timeout_sql : string;  (** the offending SQL text *)
  timeout_stream : int;  (** index of the stream in plan order *)
  timeout_root : string;  (** fragment root's Skolem-function name *)
  timeout_elapsed_ms : float;  (** wall time spent before the budget hit *)
}

exception Plan_timeout of timeout_info
(** A sub-query exceeded the work budget (the paper's 5-minute
    per-query timeout) and could not degrade.  The enclosing
    [execute.stream] span also gets
    [timeout]/[timeout.stream]/[timeout.root]/[timeout.elapsed_ms]
    attributes so traces show which sub-query blew the budget. *)

(** Both entry points run one pipeline per sub-query: the generated SQL
    is printed to text, re-parsed and planned by the engine, cost
    annotated (under tracing), executed, and its rows accounted.  They
    differ only in how the plan is submitted.  [domains] (default 1)
    fans the plan's sub-queries out over a pool of that many OCaml 5
    domains; 1 is exactly the sequential path.  Output and all
    deterministic accounting (work, tuples, bytes, modeled transfer)
    are identical at every domain count and between the two entry
    points — the merge-tagger tie-breaks by plan order. *)

val execute :
  ?style:Sql_gen.style ->
  ?reduce:bool ->
  ?budget:int ->
  ?profile:Relational.Executor.profile ->
  ?domains:int ->
  ?batch_size:int ->
  prepared ->
  Partition.t ->
  execution
(** Runs every sub-query on the engine in-process and keeps its sorted
    output as a relation.  [batch_size] switches to the executor's
    vectorized batch path; output and accounting stay identical to the
    tuple path at every batch size.  Raises {!Plan_timeout} when a
    sub-query exceeds [budget]. *)

val execute_streaming :
  ?style:Sql_gen.style ->
  ?reduce:bool ->
  ?backend:Relational.Backend.t ->
  ?domains:int ->
  prepared ->
  Partition.t ->
  streaming
(** Submits every sub-query through a per-stream
    {!Relational.Backend.fork} of [backend] (default: a fault-free
    [Backend.create p.db]), whose budget, profile and batch size apply.
    Each sub-query's sorted output is spooled to a temporary file
    (modeling a server-side result set) instead of being retained:
    live heap memory from here through tagging is bounded by the
    view-tree depth plus one tuple per stream, independent of the
    database size.

    [backend] serves as the config/seed template — its own counters
    never move; per-stream forking makes fault draws independent of
    cross-stream interleaving, so the resilience counters are identical
    at every [domains] count.  Transient failures are retried with
    backoff, and a persistent failure — retries exhausted, a fatal
    fault, or a work-budget timeout — degrades only the offending
    stream by splitting its fragment along view-tree edges and
    re-executing the finer sub-queries.  The effective plan is still a
    point in the 2^|E| lattice, so the merged XML is byte-identical to a
    fault-free run, and the per-stream accounting covers exactly the
    winning attempts.  Raises {!Plan_timeout} when a single-node
    fragment times out (nothing finer exists), or the backend error
    when a single-node fragment fails fatally.  If a stream fails, the
    spooled cursors of already-completed streams are closed — their
    spool files do not outlive the call.  Emits
    [middleware.degraded_streams] metrics and [degraded.*] span
    attributes on top of the backend's own spans/metrics. *)

val document_of : prepared -> execution -> Xmlkit.Xml.t
val xml_string_of : prepared -> execution -> string
val document_of_streaming : prepared -> streaming -> Xmlkit.Xml.t
val xml_string_of_streaming : prepared -> streaming -> string

val stream_to_channel : prepared -> streaming -> out_channel -> unit
(** Tag and serialize straight to a channel; the document is never held
    in memory. *)

val explain :
  ?style:Sql_gen.style -> ?reduce:bool -> prepared -> Partition.t -> string
(** Per stream: the shipped SQL, the rewritten logical algebra tree,
    and the cost-annotated physical plan (estimates only — nothing is
    executed). *)

val explain_execution : prepared -> 'a run -> string
(** Like {!explain} but over a finished run: the physical trees are the
    executed plans, so every operator shows estimated {e and} actual
    rows/work.  Does not touch a streaming run's cursors. *)

val diagnose_samples : prepared -> 'a run -> Obs.Diagnose.sample list
(** Per-operator estimated-vs-actual records for every stream's physical
    plan, labelled by fragment root — input for {!Obs.Diagnose}.
    Estimates are present only if the run had tracing on (that is when
    [Cost.annotate] fires); missing figures are negative and skipped by
    the detector. *)

val materialize :
  Relational.Database.t -> Rxl.view -> strategy -> Xmlkit.Xml.t * execution
(** One-call convenience: prepare, plan, execute, tag. *)

val materialize_naive : prepared -> Xmlkit.Xml.t
(** Ground truth: materializes the view via naive datalog evaluation of
    every node rule, bypassing SQL generation.  Tests validate every
    plan's output against this. *)
