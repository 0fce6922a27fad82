(* Golden digests: MD5s of the XML the merge tagger renders for Queries
   1 and 2 and the paper's fragment view, under five plans × reduce
   on/off, plus the naive oracle's rendering of each view.  The naive
   oracle itself renders through [Tagger.to_document], so the lattice
   tests compare the tagger against itself; these digests, recorded
   from an earlier tagger, are the independent anchor a rewrite of the
   tagger must match byte for byte. *)

open Silkroute

let views =
  [
    ("q1", Queries.query1_text);
    ("q2", Queries.query2_text);
    ("fragment", Queries.fragment_text);
  ]

(* Edge masks beyond a view's edge count are cut down to its lattice
   (the fragment view has two edges). *)
let strategies tree =
  let all = (1 lsl View_tree.edge_count tree) - 1 in
  [
    ("unified", Middleware.Unified);
    ("fully-partitioned", Middleware.Fully_partitioned);
    ("greedy", Middleware.Greedy Planner.default_params);
    ("edges-37", Middleware.Edges (37 land all));
    ("edges-255", Middleware.Edges (255 land all));
  ]

let md5 s = Digest.to_hex (Digest.string s)

(* Recorded at seed 7, sf 0.1: every plan and reduce setting renders
   the same document as the naive oracle, so one digest per view pins
   them all (q1 and q2 are both 15870 bytes, the fragment view 1091). *)
let expected =
  [
    ("q1", "e4f828f30c6da1b7c4a307f5172abdf6");
    ("q2", "43f6fa85a3aabf2c148f3b0288dea8ff");
    ("fragment", "94d23c4257cfa4e4f6f1ded2d9bffc4c");
  ]

(* Prepared once for both tests. *)
let prepared =
  lazy
    (let db = Tpch.Gen.generate (Tpch.Gen.config ~seed:7L 0.1) in
     List.map (fun (name, text) -> (name, Middleware.prepare_text db text)) views)

let test_plan_digests () =
  List.iter
    (fun (vname, p) ->
      List.iter
        (fun (sname, strategy) ->
          let plan = Middleware.partition_of p strategy in
          List.iter
            (fun reduce ->
              let key =
                Printf.sprintf "%s/%s/%s" vname sname
                  (if reduce then "reduce" else "no-reduce")
              in
              let xml =
                Middleware.xml_string_of p (Middleware.execute ~reduce p plan)
              in
              Alcotest.(check string) key (List.assoc vname expected)
                (md5 xml))
            [ true; false ])
        (strategies p.Middleware.tree))
    (Lazy.force prepared)

let test_naive_digests () =
  List.iter
    (fun (vname, p) ->
      Alcotest.(check string) vname (List.assoc vname expected)
        (md5 (Xmlkit.Serialize.to_string (Middleware.materialize_naive p))))
    (Lazy.force prepared)

let suite =
  [
    Alcotest.test_case "plan renderings match golden MD5s" `Quick
      test_plan_digests;
    Alcotest.test_case "naive renderings match golden MD5s" `Quick
      test_naive_digests;
  ]
