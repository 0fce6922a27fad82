(** Catalog statistics.

    Row counts, per-column distinct counts (NDV), average wire widths and
    null fractions, computed by a full scan — the moral equivalent of
    [ANALYZE].  {!Cost} derives cardinality and cost estimates from these;
    the paper's greedy planner treats the RDBMS as exactly this kind of
    oracle. *)

type column_stats = {
  distinct : int;  (** number of distinct values, ≥ 1 *)
  avg_width : float;  (** average wire bytes per value *)
  null_fraction : float;
}

type table_stats = {
  row_count : int;
  columns : (string * column_stats) list;
}

type t

val analyze_table : Database.t -> string -> table_stats
val analyze : Database.t -> t
(** Analyzes every table in the catalog: a full scan on every call. *)

val of_database : Database.t -> t
(** The database's shared statistics: {!analyze}d on the first call for
    each {!Database.version} and memoized until the version moves.
    Calls between two mutations return the physically same value, from
    any domain.  Callers must not mutate it — skew a {!copy}. *)

val copy : t -> t
(** A private copy that {!scale_table} may edit without touching the
    original. *)

val scale_table : t -> string -> float -> unit
(** Deliberately skews one table's catalog entry in place (apply it to a
    {!copy}, never to {!of_database}'s value): row count and
    per-column NDVs are multiplied by the factor (clamped to >= 1).
    Diagnostics fixture — models a stale catalog so the {!Obs.Diagnose}
    detector has a misestimate to flag.  Raises [Invalid_argument] on an
    unknown table or a non-positive factor. *)

val table : t -> string -> table_stats option
val table_exn : t -> string -> table_stats
val column : t -> string -> string -> column_stats option
val row_count : t -> string -> int
val pp : Format.formatter -> t -> unit
