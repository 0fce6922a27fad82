(* Table statistics: row counts, per-column distinct counts and average
   wire widths.  This is the information a commercial optimizer keeps in
   its catalog; our cost oracle derives estimates from it (the paper uses
   the target RDBMS "as an oracle, providing the values for the functions
   evaluation_cost and cardinality"). *)

type column_stats = { distinct : int; avg_width : float; null_fraction : float }

type table_stats = {
  row_count : int;
  columns : (string * column_stats) list;
}

type t = { by_table : (string, table_stats) Hashtbl.t }

let analyze_table db name : table_stats =
  let schema = Database.schema db name in
  let data = Database.raw_data db name in
  let n = Array.length data in
  let cols = Schema.column_names schema in
  let columns =
    List.mapi
      (fun i col ->
        let seen = Hashtbl.create (max 16 n) in
        let width = ref 0 in
        let nulls = ref 0 in
        Array.iter
          (fun row ->
            let v = row.(i) in
            if Value.is_null v then incr nulls;
            width := !width + Value.wire_size v;
            Hashtbl.replace seen (Value.to_string v) ())
          data;
        let stats =
          {
            distinct = max 1 (Hashtbl.length seen);
            avg_width = (if n = 0 then 8.0 else float_of_int !width /. float_of_int n);
            null_fraction = (if n = 0 then 0.0 else float_of_int !nulls /. float_of_int n);
          }
        in
        (col, stats))
      cols
  in
  { row_count = n; columns }

let analyze db : t =
  let by_table = Hashtbl.create 16 in
  List.iter
    (fun name -> Hashtbl.replace by_table name (analyze_table db name))
    (Database.table_names db);
  { by_table }

(* The catalog a database's planners and annotators share: analyzed on
   first need and kept until the database's version moves.  Entries are
   weakly keyed by the database, so a dropped database takes its
   statistics with it.  One lock guards the table and the analysis, so
   concurrent first callers scan once and all get the same value. *)
module Memo = Ephemeron.K1.Make (struct
  type t = Database.t

  let equal = ( == )
  let hash = Database.id
end)

let memo : (int * t) Memo.t = Memo.create 8
let memo_lock = Mutex.create ()

let of_database db =
  Mutex.protect memo_lock (fun () ->
      let version = Database.version db in
      match Memo.find_opt memo db with
      | Some (v, t) when v = version -> t
      | _ ->
          let t = analyze db in
          Memo.replace memo db (version, t);
          t)

let copy t = { by_table = Hashtbl.copy t.by_table }

(* Deliberately skew one table's statistics: multiply its row count and
   per-column NDVs by [factor] (clamped to >= 1 row / 1 value).  This is
   the diagnostics test fixture — a stale or wrong catalog entry — that
   `run --diagnose --skew-stats` uses to prove the anomaly detector
   flags the resulting misestimates.  It edits [t] in place, so callers
   skew a {!copy}, never the shared {!of_database} value. *)
let scale_table t name factor =
  if factor <= 0.0 then invalid_arg "Stats.scale_table: factor must be > 0";
  match Hashtbl.find_opt t.by_table name with
  | None -> invalid_arg (Printf.sprintf "Stats.scale_table: no table %s" name)
  | Some ts ->
      let scale n = max 1 (int_of_float (float_of_int n *. factor)) in
      Hashtbl.replace t.by_table name
        {
          row_count = scale ts.row_count;
          columns =
            List.map
              (fun (c, cs) -> (c, { cs with distinct = scale cs.distinct }))
              ts.columns;
        }

let table t name = Hashtbl.find_opt t.by_table name

let table_exn t name =
  match table t name with
  | Some s -> s
  | None -> invalid_arg (Printf.sprintf "Stats: no statistics for %s" name)

let column t name col =
  match table t name with
  | None -> None
  | Some ts -> List.assoc_opt col ts.columns

let row_count t name = (table_exn t name).row_count

let pp fmt t =
  Hashtbl.iter
    (fun name ts ->
      Format.fprintf fmt "%s: %d rows@." name ts.row_count;
      List.iter
        (fun (c, cs) ->
          Format.fprintf fmt "  %s: ndv=%d width=%.1f nulls=%.2f@." c
            cs.distinct cs.avg_width cs.null_fraction)
        ts.columns)
    t.by_table
