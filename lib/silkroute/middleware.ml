(* The middleware pipeline (paper Fig. 7): RXL view -> view tree ->
   partition -> SQL texts -> RDBMS -> sorted tuple streams -> merge/tag ->
   XML.

   Execution goes through the production path end to end: the generated
   SQL AST is printed to text, re-parsed by the engine's parser, and
   executed; wall-clock time, deterministic work units and the modeled
   transfer time are all reported, mirroring the paper's Query time /
   Total time split. *)

module R = Relational

let src = Logs.Src.create "silkroute" ~doc:"SilkRoute middleware"

module Log = (val Logs.src_log src : Logs.LOG)

type prepared = {
  db : R.Database.t;
  view : Rxl.view;
  tree : View_tree.t;
  labels : Xmlkit.Dtd.multiplicity array;
  stats : R.Stats.t Lazy.t;
      (* pinned statistics when already a value; otherwise never forced
         here — [stats_of] reads the database's shared memo instead *)
}

(* The statistics plans of [p] are costed against.  An unforced [p.stats]
   is left alone, so a prepared view shared across domains never races
   on it; reading the memo costs one analyze per database version. *)
let stats_of p =
  match p.stats with
  | pinned when Lazy.is_val pinned -> Lazy.force pinned
  | _ -> R.Stats.of_database p.db

let with_skew p skews =
  let st = R.Stats.copy (stats_of p) in
  List.iter (fun (table, factor) -> R.Stats.scale_table st table factor) skews;
  { p with stats = Lazy.from_val st }

let prepare db view =
  Obs.Span.with_span "middleware.prepare" (fun () ->
      let tree = View_tree.of_view db view in
      let labels = Label.label_edges db tree in
      if Obs.Span.tracing () then
        Obs.Span.add_list
          [
            Obs.Attr.int "nodes" (View_tree.node_count tree);
            Obs.Attr.int "edges" (View_tree.edge_count tree);
            Obs.Attr.int "work" (View_tree.node_count tree);
          ];
      { db; view; tree; labels; stats = lazy (R.Stats.of_database db) })

let prepare_text db text = prepare db (Rxl_parser.parse text)

type strategy =
  | Unified
  | Fully_partitioned
  | Edges of int (* partition mask over view-tree edges *)
  | Greedy of Planner.params

let strategy_name = function
  | Unified -> "unified"
  | Fully_partitioned -> "fully-partitioned"
  | Edges mask -> Printf.sprintf "edges:%d" mask
  | Greedy _ -> "greedy"

let partition_of p strategy =
  Obs.Span.with_span "middleware.plan" (fun () ->
      let requests = ref 0 in
      let plan =
        match strategy with
        | Unified -> Partition.unified p.tree
        | Fully_partitioned -> Partition.fully_partitioned p.tree
        | Edges mask -> Partition.of_mask p.tree mask
        | Greedy params ->
            let oracle = R.Cost.oracle_with_stats p.db (stats_of p) in
            let result = Planner.gen_plan p.db oracle p.tree p.labels params in
            requests := result.Planner.requests;
            Log.info (fun m -> m "genPlan: %s" (Planner.to_string p.tree result));
            Planner.best_plan p.tree result
      in
      if Obs.Span.tracing () then
        Obs.Span.add_list
          [
            Obs.Attr.string "strategy" (strategy_name strategy);
            Obs.Attr.int "streams" (Partition.stream_count plan);
            Obs.Attr.int "work" !requests;
          ];
      plan)

let options_of p ~style ~reduce =
  { Sql_gen.style; labels = (if reduce then Some p.labels else None) }

(* Per-stream breakdown: every sub-query of a partition gets its own
   record, so the result can show where inside a plan the work went (the
   aggregate fields of [run] are sums over these). *)
type stream_exec = {
  se_stream : Sql_gen.stream;
  se_sql : string;
  se_plan : R.Physical.plan;
  se_stats : R.Executor.stats;
  se_wall_ms : float;
  se_rows : int;
  se_bytes : int;
  se_transfer_ms : float;
}

(* What resilience cost: counters summed over the per-stream forked
   backends, plus the number of streams that had to be degraded. *)
type resilience = {
  r_submits : int;
  r_attempts : int;
  r_retries : int;
  r_faults : int;
  r_timeouts : int;
  r_degraded : int;
  r_backoff_ms : float;
  r_wasted_work : int;
}

(* Result of running one plan; ['a] is what each stream's rows are held
   in — a relation or a spooled cursor. *)
type 'a run = {
  streams : (Sql_gen.stream * 'a) list;
  per_stream : stream_exec list; (* one entry per sub-query, in plan order *)
  sql_texts : string list;
  query_wall_ms : float; (* measured engine time *)
  transfer_ms : float; (* modeled client transfer time *)
  work : int; (* deterministic engine work units *)
  tuples : int;
  bytes : int;
  resilience : resilience;
}

type execution = R.Relation.t run
type streaming = R.Cursor.t run

let total_wall_ms e = e.query_wall_ms +. e.transfer_ms

(* Which sub-query blew the budget, and where it sat in the plan:
   without this, a timeout in a multi-stream plan loses the partial
   per-stream picture and the trace cannot say which fragment was at
   fault. *)
type timeout_info = {
  timeout_sql : string; (* the offending SQL text *)
  timeout_stream : int; (* index of the stream in plan order *)
  timeout_root : string; (* fragment root's Skolem-function name *)
  timeout_elapsed_ms : float; (* wall time spent before the budget hit *)
}

exception Plan_timeout of timeout_info
(* A sub-query exceeded the execution budget (the paper's 5-minute
   per-query timeout). *)

let now_ms () = Unix.gettimeofday () *. 1000.0

let root_name_of p (s : Sql_gen.stream) =
  View_tree.skolem_name
    (View_tree.node p.tree s.Sql_gen.fragment.Partition.root).View_tree.sfi

(* --- parallel fan-out --------------------------------------------------- *)

(* Run [f i x] over the indexed [xs] — sequentially when [domains <= 1]
   (byte-for-byte the old single-domain path), or fanned out over a
   domain pool.  Results come back in list (plan) order either way; the
   merge-tagger tie-breaks by plan order, so execution order cannot
   affect the XML.

   Failure contract: in both modes every already-completed result is
   passed to [on_partial] (the hook where the streaming path closes
   spooled cursors, fixing the abandoned-spool leak) before the
   exception re-raises.  In parallel mode all submitted tasks are
   awaited first — a worker cannot still be running a task whose
   resources nobody owns — and when several fail, the earliest in plan
   order wins, matching what sequential execution would have raised. *)
let map_streams ~domains ~on_partial f xs =
  if domains <= 1 then begin
    let acc = ref [] in
    (try List.iteri (fun i x -> acc := f i x :: !acc) xs
     with e ->
       let bt = Printexc.get_raw_backtrace () in
       on_partial (List.rev !acc);
       Printexc.raise_with_backtrace e bt);
    List.rev !acc
  end
  else
    R.Domain_pool.with_pool ~domains (fun pool ->
        let handles =
          List.mapi (fun i x -> R.Domain_pool.submit pool (fun () -> f i x)) xs
        in
        let results =
          List.map
            (fun h ->
              match R.Domain_pool.await h with
              | v -> Ok v
              | exception e -> Error (e, Printexc.get_raw_backtrace ()))
            handles
        in
        let completed =
          List.filter_map (function Ok v -> Some v | Error _ -> None) results
        in
        match
          List.find_map (function Error e -> Some e | Ok _ -> None) results
        with
        | None -> completed
        | Some (e, bt) ->
            on_partial completed;
            Printexc.raise_with_backtrace e bt)

(* --- the execution core ------------------------------------------------- *)

(* How one sub-query's physical plan reaches the engine — the only thing
   that differs between {!execute} and {!execute_streaming}.  [submit]
   returns the rows, the engine stats, and the delivered rows' (count,
   wire bytes, modeled transfer ms). *)
type 'a submitter = {
  submit :
    label:string ->
    R.Physical.plan ->
    'a * R.Executor.stats * (int * int * float);
  profile : R.Executor.profile; (* the engine's, for cost annotation *)
  backend : R.Backend.t option;
      (* a spooling connection: it retries transient failures itself,
         and a persistent one degrades the fragment *)
}

(* The engine called in-process; the rows stay a relation. *)
let direct ~budget ~profile ?batch_size db =
  {
    submit =
      (fun ~label:_ plan ->
        let rel, stats =
          R.Executor.run_plan_with_stats ~budget ~profile ?batch_size db plan
        in
        ( rel,
          stats,
          ( R.Relation.cardinality rel,
            R.Relation.wire_size rel,
            R.Transfer.relation_ms R.Transfer.default rel ) ));
    profile;
    backend = None;
  }

(* A backend connection: rows are spooled out of the heap by the winning
   attempt and accounted per tuple as they pass. *)
let spooled backend =
  let transfer = R.Transfer.default in
  {
    submit =
      (fun ~label plan ->
        let rows = ref 0 and bytes = ref 0 and ms = ref 0.0 in
        let cur, stats =
          R.Backend.execute backend ~label
            ~on_attempt:(fun _attempt ->
              (* a fresh physical attempt re-delivers from row one: drop
                 the partial accounting of the failed attempt *)
              rows := 0;
              bytes := 0;
              ms := transfer.R.Transfer.per_stream_overhead)
            ~on_row:(fun t ->
              incr rows;
              bytes := !bytes + R.Tuple.wire_size t;
              ms := !ms +. R.Transfer.tuple_ms transfer t)
            plan
        in
        (cur, stats, (!rows, !bytes, !ms)));
    profile = R.Backend.profile backend;
    backend = Some backend;
  }

(* Nested fragment splits allowed per original stream. *)
let max_splits = 8

(* The one per-stream pipeline: each stream's SQL is printed to text,
   re-parsed by the engine's parser and planned here — so the executed
   plan carries cost estimates and actual row/work figures out to traces,
   [--explain] and [--diagnose] — then submitted through [connect i], the
   submitter of top-level stream [i].  [release] frees the rows of
   completed streams when a later one fails. *)
let run_plan ?(style = Sql_gen.Outer_join) ?(reduce = false) ~mode ~domains
    ~release ~(connect : int -> 'a submitter) (p : prepared)
    (plan : Partition.t) : 'a run =
 Obs.Span.with_span "middleware.execute" (fun () ->
  if Obs.Span.tracing () then
    Obs.Span.add_list
      [ Obs.Attr.string "mode" mode; Obs.Attr.int "domains" domains ];
  let opts = options_of p ~style ~reduce in
  let streams = Sql_gen.streams p.db p.tree plan opts in
  let tasks = List.mapi (fun i s -> (connect i, s)) streams in
  let release_all = List.iter (List.iter (fun (rows, _) -> release rows)) in
  let degraded = Atomic.make 0 in
  (* A persistent failure of a spooled stream — retries exhausted, a
     fatal fault, or a work-budget timeout — splits the offending
     fragment along its view-tree edges (one step down the 2^|E| plan
     lattice, the paper's own fallback space) and recurses on the finer
     sub-queries.  A timeout that cannot degrade — a direct submission,
     or a single-node fragment — escapes as [Plan_timeout]. *)
  let rec run_stream ~depth sub i (s : Sql_gen.stream) =
    Obs.Span.with_span "execute.stream" (fun () ->
        let text = R.Sql_print.to_string s.Sql_gen.query in
        let root_name = root_name_of p s in
        let phys = R.Physical.plan_of p.db (R.Sql_parser.parse text) in
        if Obs.Span.tracing () then
          (* fill est_rows/est_cost so the plan.physical spans below
             carry estimated vs actual figures per operator *)
          ignore (R.Cost.annotate ~profile:sub.profile (stats_of p) phys);
        let t0 = now_ms () in
        match sub.submit ~label:root_name phys with
        | rows, stats, (n, bytes, transfer_ms) ->
            let wall_ms = now_ms () -. t0 in
            R.Physical.emit_obs_spans phys;
            Log.debug (fun m ->
                m "stream: %d rows, %d work units, %.1f ms — %s" n
                  stats.R.Executor.work wall_ms
                  (if String.length text > 80 then String.sub text 0 80 ^ "…"
                   else text));
            if Obs.Span.tracing () then begin
              Obs.Span.add_list
                ([
                   Obs.Attr.int "index" i;
                   Obs.Attr.string "root" root_name;
                   Obs.Attr.int "rows" n;
                   Obs.Attr.int "bytes" bytes;
                   Obs.Attr.int "work" stats.R.Executor.work;
                 ]
                @
                if sub.backend = None then []
                else
                  [ Obs.Attr.bool "spooled" true; Obs.Attr.int "depth" depth ]);
              Obs.Metrics.incr "execute.streams";
              Obs.Metrics.observe "execute.stream.work"
                (float_of_int stats.R.Executor.work);
              Obs.Metrics.observe "execute.stream.rows" (float_of_int n);
              Obs.Metrics.observe "execute.stream.bytes" (float_of_int bytes)
            end;
            [
              ( rows,
                {
                  se_stream = s;
                  se_sql = text;
                  se_plan = phys;
                  se_stats = stats;
                  se_wall_ms = wall_ms;
                  se_rows = n;
                  se_bytes = bytes;
                  se_transfer_ms = transfer_ms;
                } );
            ]
        | exception exn -> (
            let bt = Printexc.get_raw_backtrace () in
            let elapsed = now_ms () -. t0 in
            let kind =
              match exn with
              | R.Executor.Timeout -> Some R.Backend.Timeout
              | R.Backend.Backend_error { kind; _ } -> Some kind
              | _ -> None
            in
            let finer =
              if sub.backend <> None && depth < max_splits then
                Partition.split s.Sql_gen.fragment
              else None
            in
            match (kind, finer) with
            | Some kind, Some frags ->
                let kind = R.Backend.kind_name kind in
                let n = List.length frags in
                Atomic.incr degraded;
                Obs.Metrics.incr "middleware.degraded_streams";
                if Obs.Span.tracing () then begin
                  Obs.Span.add_list
                    [
                      Obs.Attr.bool "degraded" true;
                      Obs.Attr.string "degraded.root" root_name;
                      Obs.Attr.string "degraded.kind" kind;
                      Obs.Attr.int "degraded.fragments" n;
                    ];
                  Obs.Event.warn "middleware.degraded"
                    ~attrs:
                      [
                        Obs.Attr.string "root" root_name;
                        Obs.Attr.string "kind" kind;
                        Obs.Attr.int "fragments" n;
                      ]
                end;
                Log.info (fun m ->
                    m "degrading stream %d (root %s, %s): splitting into %d \
                       finer sub-queries"
                      i root_name kind n);
                (* a later fragment failing must not strand the rows of
                   the fragments already run *)
                let sub_runs = ref [] in
                (try
                   List.iter
                     (fun frag ->
                       sub_runs :=
                         run_stream ~depth:(depth + 1) sub i
                           (Sql_gen.stream_of_fragment p.db p.tree opts frag)
                         :: !sub_runs)
                     frags
                 with e ->
                   let bt = Printexc.get_raw_backtrace () in
                   release_all !sub_runs;
                   Printexc.raise_with_backtrace e bt);
                List.concat (List.rev !sub_runs)
            | Some R.Backend.Timeout, None ->
                if Obs.Span.tracing () then begin
                  Obs.Span.add_list
                    [
                      Obs.Attr.bool "timeout" true;
                      Obs.Attr.int "timeout.stream" i;
                      Obs.Attr.string "timeout.root" root_name;
                      Obs.Attr.float "timeout.elapsed_ms" elapsed;
                    ];
                  Obs.Event.error "middleware.plan_timeout"
                    ~attrs:
                      [
                        Obs.Attr.int "stream" i;
                        Obs.Attr.string "root" root_name;
                        Obs.Attr.float "elapsed_ms" elapsed;
                      ];
                  Obs.Event.dump ~reason:"plan-timeout"
                end;
                raise
                  (Plan_timeout
                     {
                       timeout_sql = text;
                       timeout_stream = i;
                       timeout_root = root_name;
                       timeout_elapsed_ms = elapsed;
                     })
            | _ -> Printexc.raise_with_backtrace exn bt))
  in
  let runs =
    List.concat
      (map_streams ~domains ~on_partial:release_all
         (fun i (sub, s) -> run_stream ~depth:0 sub i s)
         tasks)
  in
  (* Degradation replaces one stream by finer streams covering the same
     nodes: the effective plan is still a point in the 2^|E| lattice, so
     sorting by fragment root restores plan order and the merge/tagger
     produces byte-identical XML. *)
  let runs =
    List.stable_sort
      (fun (_, a) (_, b) ->
        compare a.se_stream.Sql_gen.fragment.Partition.root
          b.se_stream.Sql_gen.fragment.Partition.root)
      runs
  in
  let per_stream = List.map snd runs in
  let sum f = List.fold_left (fun acc se -> acc + f se) 0 per_stream in
  let sum_ms f = List.fold_left (fun acc se -> acc +. f se) 0.0 per_stream in
  let work = sum (fun se -> se.se_stats.R.Executor.work) in
  let tuples = sum (fun se -> se.se_rows) in
  let bytes = sum (fun se -> se.se_bytes) in
  let merged =
    R.Backend.merge_stats
      (List.filter_map
         (fun (sub, _) -> Option.map R.Backend.stats sub.backend)
         tasks)
  in
  let resilience =
    {
      r_submits = merged.R.Backend.submits;
      r_attempts = merged.R.Backend.attempts;
      r_retries = merged.R.Backend.retries;
      r_faults = R.Backend.total_faults merged;
      r_timeouts = merged.R.Backend.timeouts;
      r_degraded = Atomic.get degraded;
      r_backoff_ms = merged.R.Backend.backoff_ms;
      r_wasted_work = merged.R.Backend.wasted_work;
    }
  in
  if Obs.Span.tracing () then
    Obs.Span.add_list
      [
        Obs.Attr.int "streams" (List.length per_stream);
        Obs.Attr.int "tuples" tuples;
        Obs.Attr.int "bytes" bytes;
        Obs.Attr.int "work" work;
        Obs.Attr.int "degraded" resilience.r_degraded;
        Obs.Attr.int "retries" resilience.r_retries;
        Obs.Attr.int "faults" resilience.r_faults;
      ];
  {
    streams = List.map (fun (rows, se) -> (se.se_stream, rows)) runs;
    per_stream;
    sql_texts = List.map (fun se -> se.se_sql) per_stream;
    query_wall_ms = sum_ms (fun se -> se.se_wall_ms);
    transfer_ms = sum_ms (fun se -> se.se_transfer_ms);
    work;
    tuples;
    bytes;
    resilience;
  })

let execute ?style ?reduce ?(budget = 0)
    ?(profile = R.Executor.default_profile) ?(domains = 1) ?batch_size
    (p : prepared) plan : execution =
  let sub = direct ~budget ~profile ?batch_size p.db in
  run_plan ?style ?reduce ~mode:"direct" ~domains ~release:ignore
    ~connect:(fun _ -> sub)
    p plan

(* One forked connection per top-level stream: fault draws depend only
   on (seed, stream index, the stream's own submission sequence), never
   on how streams interleave across domains, so the resilience counters
   are identical at any domain count and across repeated runs.
   [backend] itself is only the config/seed template; its own counters
   never move here. *)
let execute_streaming ?style ?reduce ?backend ?(domains = 1) (p : prepared)
    plan : streaming =
  let backend =
    match backend with Some b -> b | None -> R.Backend.create p.db
  in
  run_plan ?style ?reduce ~mode:"streaming" ~domains ~release:R.Cursor.close
    ~connect:(fun i -> spooled (R.Backend.fork backend ~salt:i))
    p plan

let document_of p (e : execution) : Xmlkit.Xml.t =
  Tagger.to_document p.tree e.streams

let xml_string_of p (e : execution) : string =
  Tagger.to_string p.tree e.streams

let document_of_streaming p (se : streaming) : Xmlkit.Xml.t =
  Tagger.to_document_cursors p.tree se.streams

let xml_string_of_streaming p (se : streaming) : string =
  Tagger.to_string_cursors p.tree se.streams

let stream_to_channel p (se : streaming) oc : unit =
  Tagger.to_channel p.tree se.streams oc

(* --- explain and diagnostics ------------------------------------------- *)

(* Pretty-print one stream's three representations: the SQL text the
   middleware ships, the rewritten logical algebra, and the physical
   plan with its cost annotations (estimates only unless the plan was
   executed, in which case actual rows/work appear alongside). *)
let explain_stream (p : prepared) i root_name ~sql (plan : R.Physical.plan)
    ~logical =
  ignore (R.Cost.annotate (stats_of p) plan);
  Printf.sprintf
    "-- stream %d (root %s):\n%s\n\nlogical plan:\n%s\nphysical plan:\n%s" i
    root_name sql logical
    (R.Physical.to_string plan)

let explain ?(style = Sql_gen.Outer_join) ?(reduce = false) (p : prepared)
    (plan : Partition.t) : string =
  let opts = options_of p ~style ~reduce in
  let streams = Sql_gen.streams p.db p.tree plan opts in
  String.concat "\n\n"
    (List.mapi
       (fun i (s : Sql_gen.stream) ->
         let text = R.Sql_print.to_pretty_string s.Sql_gen.query in
         (* round-trip through the text interface, exactly like
            execution, so the explained tree is the executed tree *)
         let ast = R.Sql_parser.parse (R.Sql_print.to_string s.Sql_gen.query) in
         let alg = R.Algebra.rewrite (R.Algebra.lower p.db ast) in
         let phys = R.Physical.of_algebra alg in
         explain_stream p (i + 1) (root_name_of p s) ~sql:text phys
           ~logical:(R.Algebra.to_string alg))
       streams)

let explain_execution (p : prepared) (e : 'a run) : string =
  String.concat "\n\n"
    (List.mapi
       (fun i (se : stream_exec) ->
         let ast = R.Sql_parser.parse se.se_sql in
         let alg = R.Algebra.rewrite (R.Algebra.lower p.db ast) in
         explain_stream p (i + 1)
           (root_name_of p se.se_stream)
           ~sql:se.se_sql se.se_plan ~logical:(R.Algebra.to_string alg))
       e.per_stream)

(* Flatten every stream's physical plan into the generic per-operator
   records the anomaly detector consumes, labelled by fragment root. *)
let diagnose_samples (p : prepared) (e : 'a run) : Obs.Diagnose.sample list =
  List.concat_map
    (fun (se : stream_exec) ->
      R.Physical.diagnose_samples
        ~stream:(root_name_of p se.se_stream)
        se.se_plan)
    e.per_stream

(* One-call convenience: materialize the XML view of [db] under
   [strategy]. *)
let materialize db view strategy : Xmlkit.Xml.t * execution =
  let p = prepare db view in
  let e = execute p (partition_of p strategy) in
  (document_of p e, e)

(* Ground truth: materialize via naive datalog evaluation of every node
   rule, bypassing SQL generation entirely.  Used by tests to validate
   every plan against an independent implementation. *)
let materialize_naive (p : prepared) : Xmlkit.Xml.t =
  let plan = Partition.fully_partitioned p.tree in
  let opts = options_of p ~style:Sql_gen.Outer_union ~reduce:false in
  let streams = Sql_gen.streams p.db p.tree plan opts in
  let rels =
    List.map
      (fun (s : Sql_gen.stream) ->
        (* evaluate the node's rule naively, then project and sort into
           the stream layout *)
        let frag = s.Sql_gen.fragment in
        let id = frag.Partition.root in
        let node = View_tree.node p.tree id in
        let inst = View_tree.instances p.db p.tree id in
        let cols = s.Sql_gen.cols in
        let tuples =
          List.map
            (fun row ->
              Array.map
                (fun c ->
                  match c with
                  | Sql_gen.Level_col j ->
                      if j <= View_tree.level node then
                        R.Value.Int (Sql_gen.sfi_component node.View_tree.sfi j)
                      else R.Value.Null
                  | Sql_gen.Var_col v -> (
                      match R.Relation.column_index inst v with
                      | Some i -> row.(i)
                      | None -> R.Value.Null))
                cols)
            (R.Relation.rows inst)
        in
        let rel =
          R.Relation.create (Array.map (fun c ->
              match c with
              | Sql_gen.Level_col j -> Printf.sprintf "L%d" j
              | Sql_gen.Var_col v -> v) cols)
            tuples
        in
        let positions = Array.init (Array.length cols) (fun i -> i) in
        (s, R.Relation.sort_by positions rel))
      streams
  in
  Tagger.to_document p.tree rels
