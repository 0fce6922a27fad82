(* Exhaustive print → parse structural round trip over every SQL query
   the generator can emit for the paper's benchmark views: q1/q2 × all
   2^|E| plans × {outer-join, outer-union} × {reduced, unreduced}.  The
   middleware ships SQL as text and re-parses it, so any printer/parser
   disagreement silently changes the plan the engine runs; this pins
   [parse (print q)] to be structurally equal to [q], not merely a text
   fixpoint. *)

open Silkroute
module R = Relational

let style_name = function
  | Sql_gen.Outer_join -> "outer-join"
  | Sql_gen.Outer_union -> "outer-union"

let check_stream ~ctx (s : Sql_gen.stream) =
  let q = s.Sql_gen.query in
  let structural printer pname =
    let text = printer q in
    let q' = R.Sql_parser.parse text in
    if q' <> q then
      Alcotest.failf "%s: %s round trip is not structural for\n%s" ctx pname
        text
  in
  structural R.Sql_print.to_string "to_string";
  structural R.Sql_print.to_pretty_string "to_pretty_string";
  (* the WITH renderer may rename derived aliases that collide with
     table names, so it is held to canonical-text equivalence *)
  let q' = R.Sql_parser.parse (R.Sql_print.to_with_string q) in
  if R.Sql_print.to_string q' <> R.Sql_print.to_string q then
    Alcotest.failf "%s: WITH rendering changed the query" ctx

let test_exhaustive () =
  let db = Tpch.Gen.generate (Tpch.Gen.config 0.01) in
  let total = ref 0 in
  List.iter
    (fun (qname, text) ->
      let p = Middleware.prepare_text db text in
      let tree = p.Middleware.tree in
      List.iter
        (fun style ->
          List.iter
            (fun reduce ->
              let opts =
                {
                  Sql_gen.style;
                  labels = (if reduce then Some p.Middleware.labels else None);
                }
              in
              List.iter
                (fun mask ->
                  let plan = Partition.of_mask tree mask in
                  let ctx =
                    Printf.sprintf "%s mask=%d %s reduce=%b" qname mask
                      (style_name style) reduce
                  in
                  List.iter
                    (fun s ->
                      incr total;
                      check_stream ~ctx s)
                    (Sql_gen.streams db tree plan opts))
                (Partition.all_masks tree))
            [ true; false ])
        [ Sql_gen.Outer_join; Sql_gen.Outer_union ])
    [ ("q1", Queries.query1_text); ("q2", Queries.query2_text) ];
  (* 2 views x 512 plans x 2 styles x 2 reduce modes, several streams
     per plan: make sure the loop actually enumerated them all *)
  Alcotest.(check bool)
    (Printf.sprintf "covered %d streams" !total)
    true (!total > 10_000)

(* The paper's footnote 1: a sub-query may ship its derived tables
   inline or as a WITH clause.  Both texts must plan to the same
   physical tree, and so return the same rows. *)
let test_with_syntax_agrees () =
  let db = Tpch.Gen.generate (Tpch.Gen.config 0.1) in
  List.iter
    (fun (qname, text) ->
      let p = Middleware.prepare_text db text in
      List.iter
        (fun (pname, strategy) ->
          let plan = Middleware.partition_of p strategy in
          let opts = { Sql_gen.style = Sql_gen.Outer_join; labels = None } in
          List.iteri
            (fun i (s : Sql_gen.stream) ->
              let ctx = Printf.sprintf "%s %s stream %d" qname pname i in
              let planned print =
                R.Physical.plan_of db
                  (R.Sql_parser.parse (print s.Sql_gen.query))
              in
              let inline = planned R.Sql_print.to_string in
              let with_ = planned R.Sql_print.to_with_string in
              Alcotest.(check string)
                (ctx ^ ": same physical plan")
                (R.Physical.to_string inline)
                (R.Physical.to_string with_);
              Alcotest.(check bool)
                (ctx ^ ": same rows") true
                (R.Relation.equal
                   (R.Executor.run_plan db inline)
                   (R.Executor.run_plan db with_)))
            (Sql_gen.streams db p.Middleware.tree plan opts))
        [
          ("unified", Middleware.Unified);
          ("fully-partitioned", Middleware.Fully_partitioned);
          ("greedy", Middleware.Greedy Planner.default_params);
          ("edges:37", Middleware.Edges 37);
          ("edges:255", Middleware.Edges 255);
        ])
    [ ("q1", Queries.query1_text); ("q2", Queries.query2_text) ];
  (* the WITH text really is different syntax *)
  let p = Middleware.prepare_text db Queries.query1_text in
  match
    Sql_gen.streams db p.Middleware.tree
      (Partition.unified p.Middleware.tree)
      { Sql_gen.style = Sql_gen.Outer_join; labels = None }
  with
  | [ s ] ->
      let text = R.Sql_print.to_with_string s.Sql_gen.query in
      Alcotest.(check bool) "uses WITH" true
        (String.length text > 4 && String.sub text 0 4 = "WITH")
  | _ -> Alcotest.fail "unified q1 plan is one stream"

let suite =
  [
    Alcotest.test_case "print-parse structural, all plans/styles" `Slow
      test_exhaustive;
    Alcotest.test_case "WITH syntax agrees" `Quick test_with_syntax_agrees;
  ]
