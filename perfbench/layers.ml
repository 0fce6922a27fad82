(* Per-layer attribution: spans aggregated by bare name into calls,
   total and self time, self minor words and summed [work]
   attributes. *)

(* Orders [(name, value, samples)] as [names] declares them, failing on
   a missing or unknown name so the output cannot drift from
   BENCHMARK.json. *)
let finish names values =
  List.iter
    (fun (name, _, _) ->
      if not (List.mem_assoc name names) then
        failwith ("undeclared metric " ^ name))
    values;
  List.map
    (fun (name, unit) ->
      match List.filter (fun (n, _, _) -> n = name) values with
      | [ (_, value, samples) ] -> { Harness.name; unit; value; samples }
      | [] -> failwith ("metric not measured: " ^ name)
      | _ -> failwith ("metric measured twice: " ^ name))
    names

(* --- span aggregation ----------------------------------------------------- *)

type agg = {
  mutable calls : int;
  mutable total_ms : float;
  mutable self_ms : float;  (** duration minus direct children's *)
  mutable self_minor : float;  (** minor words, minus direct children's *)
  mutable work : int;  (** summed integer [work] attributes *)
}

type table = (string, agg) Hashtbl.t

let zero () =
  { calls = 0; total_ms = 0.0; self_ms = 0.0; self_minor = 0.0; work = 0 }

let get (t : table) name =
  Option.value ~default:(zero ()) (Hashtbl.find_opt t name)

let slot (t : table) name =
  match Hashtbl.find_opt t name with
  | Some a -> a
  | None ->
      let a = zero () in
      Hashtbl.add t name a;
      a

(* Finished spans of this process, aggregated by bare name. *)
let of_spans spans : table =
  let t = Hashtbl.create 64 and by_id = Hashtbl.create 4096 in
  List.iter (fun (s : Obs.Span.t) -> Hashtbl.replace by_id s.id s) spans;
  List.iter
    (fun (s : Obs.Span.t) ->
      if s.finished then begin
        let d = Obs.Span.duration_ms s and minor = s.gc_minor_words in
        let a = slot t s.name in
        a.calls <- a.calls + 1;
        a.total_ms <- a.total_ms +. d;
        a.self_ms <- a.self_ms +. d;
        a.self_minor <- a.self_minor +. minor;
        (match Obs.Span.find_attr s "work" with
        | Some (Obs.Attr.Int n) -> a.work <- a.work + n
        | _ -> ());
        match Option.bind s.parent (Hashtbl.find_opt by_id) with
        | Some p when p.finished ->
            let pa = slot t p.name in
            pa.self_ms <- pa.self_ms -. d;
            pa.self_minor <- pa.self_minor -. minor
        | _ -> ()
      end)
    spans;
  t

(* Spans with no layer of their own: time they do not hand to a named
   child is unattributed. *)
let containers =
  [ "middleware.plan"; "middleware.execute"; "execute.stream"; "exec.query" ]

(* Prepare, plan and SQL-generation time per op, from one span table. *)
let plan_metrics (t : table) ~ops =
  let per x = Harness.ratio x (float_of_int ops) in
  [
    ("prepare.ms_per_op", per (get t "middleware.prepare").total_ms, ops);
    ("plan.self_ms_per_op", per (get t "middleware.plan").self_ms, ops);
    ( "planner.gen_plan_ms_per_op",
      per (get t "planner.gen_plan").total_ms,
      ops );
    ("sqlgen.ms_per_op", per (get t "sqlgen.streams").total_ms, ops);
    ( "sqlgen.streams_per_op",
      per (float_of_int (get t "sqlgen.stream").calls),
      ops );
  ]

(* SQL shipping, executor and tagger per op, and the unattributed share
   of [root], the span that encloses one op. *)
let exec_metrics (t : table) ~ops ~root =
  let per x = Harness.ratio x (float_of_int ops) in
  let self n = per (get t n).self_ms and total n = per (get t n).total_ms in
  let kw n = per ((get t n).self_minor /. 1000.0) in
  let unnamed =
    List.fold_left
      (fun acc n -> acc +. (get t n).self_ms)
      (get t root).self_ms containers
  in
  [
    ("sql.print_ms_per_op", total "bench.sql.print", ops);
    ("sql.parse_ms_per_op", total "bench.sql.parse", ops);
    ("plan.lower_ms_per_op", total "bench.plan.lower", ops);
    ("exec.scan.self_ms_per_op", self "exec.scan", ops);
    ("exec.hash-join.self_ms_per_op", self "exec.hash-join", ops);
    ("exec.sort.self_ms_per_op", self "exec.sort", ops);
    ("exec.query.self_ms_per_op", self "exec.query", ops);
    ("exec.hash-join.minor_kw_per_op", kw "exec.hash-join", ops);
    ("exec.sort.minor_kw_per_op", kw "exec.sort", ops);
    ("tag.self_ms_per_op", self "middleware.tag", ops);
    ("tag.minor_kw_per_op", kw "middleware.tag", ops);
    ("obs.unnamed_self_frac", Harness.ratio unnamed (get t root).total_ms, ops);
  ]

(* The bench's own spans around the SQL-shipping calls of one executed
   stream, on its real inputs: print the generated AST, parse the
   shipped text, lower it to a physical plan.  Returns the shipped
   bytes. *)
let probe_stream db (query : Relational.Sql.query) =
  let text =
    Obs.Span.with_span "bench.sql.print" (fun () ->
        Relational.Sql_print.to_string query)
  in
  let ast =
    Obs.Span.with_span "bench.sql.parse" (fun () ->
        Relational.Sql_parser.parse text)
  in
  Obs.Span.with_span "bench.plan.lower" (fun () ->
      ignore (Relational.Physical.plan_of db ast));
  String.length text

(* Writes the recorded spans through the program's own exporters. *)
let write_traces (ctx : Common.ctx) =
  let base = Printf.sprintf "trace-%s-%d" ctx.workload ctx.seed in
  Obs.Jsonl.write_file ~experiment:ctx.workload
    (Common.state_path (base ^ ".jsonl"));
  Obs.Chrometrace.write_file (Common.state_path (base ^ ".json"))
