(* The vectorized batch path: unit laws for Batch's selection vectors,
   compile ≡ eval equivalence over random expressions, and the
   differential oracle — at every batch size, every plan of the 2^|E|
   lattice must produce XML byte-identical to the tuple-at-a-time path
   with the stats counters exactly equal, in every execution mode
   (materialized, streaming, resilient under faults, parallel). *)

open Silkroute
module R = Relational
module V = R.Value

let tpch scale = Tpch.Gen.generate (Tpch.Gen.config scale)
let v n = V.Int n
let row a b c : R.Tuple.t = [| v a; v b; v c |]

(* --- Batch unit laws --------------------------------------------------- *)

let test_push_get () =
  let b = R.Batch.create ~size:4 () in
  Alcotest.(check int) "empty" 0 (R.Batch.length b);
  Alcotest.(check int) "capacity" 4 (R.Batch.capacity b);
  R.Batch.push b ~bytes:10 (row 1 2 3);
  R.Batch.push b (row 4 5 6);
  Alcotest.(check int) "two rows" 2 (R.Batch.length b);
  Alcotest.(check bool) "not full" false (R.Batch.is_full b);
  Alcotest.(check bool) "get 0" true (R.Batch.get b 0 = row 1 2 3);
  Alcotest.(check bool) "get 1" true (R.Batch.get b 1 = row 4 5 6);
  Alcotest.(check int) "bytes 0" 10 (R.Batch.bytes_at b 0);
  Alcotest.(check int) "bytes 1 defaults to 0" 0 (R.Batch.bytes_at b 1);
  R.Batch.push b (row 7 8 9);
  R.Batch.push b (row 10 11 12);
  Alcotest.(check bool) "full" true (R.Batch.is_full b);
  Alcotest.check_raises "push past capacity"
    (Invalid_argument "Batch.push: batch is full") (fun () ->
      R.Batch.push b (row 0 0 0))

let test_keep () =
  let b = R.Batch.create ~size:8 () in
  for i = 1 to 6 do
    R.Batch.push b ~bytes:i (row i i i)
  done;
  let survivors = R.Batch.keep (fun t -> t.(0) <> v 3) b in
  Alcotest.(check int) "keep returns survivors" 5 survivors;
  Alcotest.(check int) "length respects selection" 5 (R.Batch.length b);
  Alcotest.(check bool) "row 3 skipped" true (R.Batch.get b 2 = row 4 4 4);
  Alcotest.(check int) "bytes follow selection" 4 (R.Batch.bytes_at b 2);
  (* composition: the second keep only sees the first's survivors *)
  let seen = ref [] in
  let survivors2 =
    R.Batch.keep
      (fun t ->
        seen := t.(0) :: !seen;
        t.(0) < v 5)
      b
  in
  Alcotest.(check int) "refined" 3 survivors2;
  Alcotest.(check bool) "second keep re-tested only live rows" true
    (List.rev !seen = [ v 1; v 2; v 4; v 5; v 6 ]);
  Alcotest.(check bool) "to_list in order" true
    (R.Batch.to_list b = [ row 1 1 1; row 2 2 2; row 4 4 4 ]);
  Alcotest.(check bool) "to_pairs carries bytes" true
    (R.Batch.to_pairs b = [ (1, row 1 1 1); (2, row 2 2 2); (4, row 4 4 4) ]);
  Alcotest.check_raises "push after keep"
    (Invalid_argument "Batch.push: batch has a selection vector") (fun () ->
      R.Batch.push b (row 0 0 0))

let test_keep_all_and_none () =
  let b = R.Batch.create ~size:4 () in
  R.Batch.push b (row 1 1 1);
  R.Batch.push b (row 2 2 2);
  Alcotest.(check int) "keep all" 2 (R.Batch.keep (fun _ -> true) b);
  Alcotest.(check int) "then none" 0 (R.Batch.keep (fun _ -> false) b);
  Alcotest.(check int) "empty after" 0 (R.Batch.length b);
  Alcotest.(check bool) "to_list empty" true (R.Batch.to_list b = [])

let test_cursor_round_trip () =
  let rows = List.init 10 (fun i -> row i i i) in
  let c = R.Cursor.of_list [| "a"; "b"; "c" |] rows in
  let rec drain acc =
    match R.Cursor.next_batch ~size:3 c with
    | None -> List.rev acc
    | Some b -> drain (b :: acc)
  in
  let batches = drain [] in
  Alcotest.(check (list int)) "batch sizes" [ 3; 3; 3; 1 ]
    (List.map R.Batch.length batches);
  let c2 = R.Cursor.of_batches [| "a"; "b"; "c" |] batches in
  Alcotest.(check bool) "round trip preserves rows" true
    (R.Cursor.to_list c2 = rows)

(* --- leak regression: a throwing consumer must close the source ------- *)

exception Consumer_failed

let spool_files () =
  let dir = Filename.get_temp_dir_name () in
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f ->
         String.length f >= 9
         && String.sub f 0 9 = "silkroute"
         && Filename.check_suffix f ".spool")

let test_iter_closes_on_raise () =
  let before = List.length (spool_files ()) in
  let rows = List.init 50 (fun i -> row i i i) in
  let spooled = R.Cursor.spool (R.Cursor.of_list [| "a"; "b"; "c" |] rows) in
  let n = ref 0 in
  (try
     R.Cursor.iter
       (fun _ ->
         incr n;
         if !n = 5 then raise Consumer_failed)
       spooled
   with Consumer_failed -> ());
  Alcotest.(check int) "consumer saw 5 rows" 5 !n;
  Alcotest.(check int) "spool file removed on the exception path" before
    (List.length (spool_files ()));
  Alcotest.(check bool) "cursor closed: next returns None" true
    (R.Cursor.next spooled = None)

let test_spool_closes_source_on_raise () =
  let before = List.length (spool_files ()) in
  (* A spool-backed source re-spooled through a consumer that raises via
     on_row: both the partial output file and the source's backing file
     must be released. *)
  let rows = List.init 50 (fun i -> row i i i) in
  let source = R.Cursor.spool (R.Cursor.of_list [| "a"; "b"; "c" |] rows) in
  let n = ref 0 in
  (try
     ignore
       (R.Cursor.spool
          ~on_row:(fun _ ->
            incr n;
            if !n = 7 then raise Consumer_failed)
          source)
   with Consumer_failed -> ());
  Alcotest.(check int) "no spool files leaked" before
    (List.length (spool_files ()))

(* --- compile ≡ eval over random expressions --------------------------- *)

let arity = 3

let gen_value =
  QCheck.Gen.(
    oneof
      [
        return V.Null;
        map (fun n -> V.Int n) (int_range (-5) 5);
        map (fun n -> V.Float (float_of_int n /. 2.0)) (int_range (-4) 4);
        map (fun b -> V.Bool b) bool;
        map (fun s -> V.String s) (oneofl [ ""; "a"; "bc" ]);
        map (fun d -> V.Date d) (int_range 0 3);
      ])

let gen_tuple =
  QCheck.Gen.(map Array.of_list (list_repeat arity gen_value))

let gen_resolved =
  let open QCheck.Gen in
  sized
  @@ fix (fun self n ->
         let leaf =
           oneof
             [
               map (fun i -> R.Expr.R_col i) (int_range 0 (arity - 1));
               map (fun v -> R.Expr.R_lit v) gen_value;
             ]
         in
         if n <= 0 then leaf
         else
           let sub = self (n / 2) in
           oneof
             [
               leaf;
               map3
                 (fun op a b -> R.Expr.R_cmp (op, a, b))
                 (oneofl R.Expr.[ Eq; Neq; Lt; Le; Gt; Ge ])
                 sub sub;
               map3
                 (fun op a b -> R.Expr.R_arith (op, a, b))
                 (oneofl R.Expr.[ Add; Sub; Mul; Div ])
                 sub sub;
               map2 (fun a b -> R.Expr.R_and (a, b)) sub sub;
               map2 (fun a b -> R.Expr.R_or (a, b)) sub sub;
               map (fun e -> R.Expr.R_not e) sub;
               map (fun e -> R.Expr.R_is_null e) sub;
               map (fun e -> R.Expr.R_is_not_null e) sub;
             ])

let gen_case = QCheck.Gen.pair gen_resolved gen_tuple

let print_case (_, t) =
  "tuple: " ^ String.concat ", " (Array.to_list (Array.map V.to_sql t))

let prop_compile_eq_eval =
  QCheck.Test.make ~name:"compile e ≡ eval e on random expressions"
    ~count:1000 (QCheck.make ~print:print_case gen_case) (fun (e, t) ->
      R.Expr.compile e t = R.Expr.eval e t)

let prop_compile_pred_eq_eval_pred =
  QCheck.Test.make ~name:"compile_pred e ≡ eval_pred e on random expressions"
    ~count:1000 (QCheck.make ~print:print_case gen_case) (fun (e, t) ->
      R.Expr.compile_pred e t = R.Expr.eval_pred e t)

(* --- differential oracle: batched = tuple, exactly -------------------- *)

let sizes = [ 1; 7; 1024 ]
let opts_of style = { Sql_gen.style; labels = None }

let stats_sig (st : R.Executor.stats) =
  R.Executor.
    (st.scanned, st.probed, st.emitted, st.sorted, st.spill_passes, st.work)

let check_exec label (e0 : Middleware.execution) (e : Middleware.execution)
    xml0 xml =
  Alcotest.(check string) (label ^ ": XML byte-identical") xml0 xml;
  Alcotest.(check int) (label ^ ": work") e0.Middleware.work e.Middleware.work;
  Alcotest.(check int)
    (label ^ ": tuples")
    e0.Middleware.tuples e.Middleware.tuples;
  Alcotest.(check int) (label ^ ": bytes") e0.Middleware.bytes e.Middleware.bytes;
  Alcotest.(check (float 0.0))
    (label ^ ": transfer_ms")
    e0.Middleware.transfer_ms e.Middleware.transfer_ms;
  List.iter2
    (fun (a : Middleware.stream_exec) (b : Middleware.stream_exec) ->
      Alcotest.(check bool)
        (label ^ ": per-stream stats exactly equal")
        true
        (stats_sig a.Middleware.se_stats = stats_sig b.Middleware.se_stats))
    e0.Middleware.per_stream e.Middleware.per_stream

let test_lattice_materialized_streaming () =
  let db = tpch 0.05 in
  let p = Middleware.prepare_text db Queries.query1_text in
  let tree = p.Middleware.tree in
  List.iter
    (fun style ->
      let sname =
        match style with
        | Sql_gen.Outer_join -> "outer-join"
        | Sql_gen.Outer_union -> "outer-union"
      in
      List.iter
        (fun mask ->
          let plan = Partition.of_mask tree mask in
          let e0 = Middleware.execute ~style p plan in
          let xml0 = Middleware.xml_string_of p e0 in
          let se0 = Middleware.execute_streaming ~style p plan in
          let sxml0 = Middleware.xml_string_of_streaming p se0 in
          Alcotest.(check int)
            (Printf.sprintf "%s mask %d: streaming work = materialized" sname
               mask)
            e0.Middleware.work se0.Middleware.work;
          List.iter
            (fun size ->
              let label what =
                Printf.sprintf "%s mask %d size %d %s" sname mask size what
              in
              let e = Middleware.execute ~style ~batch_size:size p plan in
              check_exec (label "materialized") e0 e xml0
                (Middleware.xml_string_of p e);
              let se =
                Middleware.execute_streaming ~style
                  ~backend:(R.Backend.create ~batch_size:size db)
                  p plan
              in
              Alcotest.(check string)
                (label "streaming: XML byte-identical")
                sxml0
                (Middleware.xml_string_of_streaming p se);
              Alcotest.(check int)
                (label "streaming: work")
                se0.Middleware.work se.Middleware.work;
              Alcotest.(check int)
                (label "streaming: tuples")
                se0.Middleware.tuples se.Middleware.tuples;
              Alcotest.(check int)
                (label "streaming: bytes")
                se0.Middleware.bytes se.Middleware.bytes;
              Alcotest.(check (float 0.0))
                (label "streaming: transfer_ms")
                se0.Middleware.transfer_ms se.Middleware.transfer_ms)
            sizes)
        (Partition.all_masks tree))
    [ Sql_gen.Outer_join; Sql_gen.Outer_union ]

let resilience_sig (r : Middleware.resilience) =
  Middleware.
    ( r.r_submits, r.r_attempts, r.r_retries, r.r_faults, r.r_timeouts,
      r.r_degraded, r.r_wasted_work )

let test_lattice_resilient_parallel () =
  let db = tpch 0.05 in
  let p = Middleware.prepare_text db Queries.query1_text in
  let tree = p.Middleware.tree in
  let faults_seen = ref 0 in
  List.iter
    (fun mask ->
      let plan = Partition.of_mask tree mask in
      (* resilient at fault rate 0.3: batched and tuple submissions see
         the same deterministic fault stream, so the resilience counters
         must match exactly along with the bytes. *)
      let backend ?batch_size () =
        R.Backend.create
          ~faults:(R.Backend.faults ~seed:14 0.3)
          ~retry:{ R.Backend.default_retry with R.Backend.max_retries = 8 }
          ?batch_size db
      in
      let r0 = Middleware.execute_streaming ~backend:(backend ()) p plan in
      let xml0 = Middleware.xml_string_of_streaming p r0 in
      faults_seen :=
        !faults_seen + r0.Middleware.resilience.Middleware.r_faults;
      (* parallel reference: tuple path at domains 1 *)
      let e0 = Middleware.execute p plan in
      let pxml0 = Middleware.xml_string_of p e0 in
      List.iter
        (fun size ->
          let r =
            Middleware.execute_streaming
              ~backend:(backend ~batch_size:size ())
              p plan
          in
          let label what =
            Printf.sprintf "mask %d size %d %s" mask size what
          in
          Alcotest.(check string)
            (label "resilient: XML byte-identical")
            xml0
            (Middleware.xml_string_of_streaming p r);
          Alcotest.(check bool)
            (label "resilient: counters exactly equal")
            true
            (resilience_sig r0.Middleware.resilience
            = resilience_sig r.Middleware.resilience);
          let e =
            Middleware.execute ~domains:2 ~batch_size:size p plan
          in
          check_exec (label "parallel domains 2") e0 e pxml0
            (Middleware.xml_string_of p e))
        sizes)
    (Partition.all_masks tree);
  Alcotest.(check bool) "faults actually fired at rate 0.3" true
    (!faults_seen > 0)

let suite =
  [
    Alcotest.test_case "batch push/get/bytes laws" `Quick test_push_get;
    Alcotest.test_case "selection vectors refine and compose" `Quick test_keep;
    Alcotest.test_case "keep-all / keep-none edges" `Quick
      test_keep_all_and_none;
    Alcotest.test_case "cursor next_batch/of_batches round trip" `Quick
      test_cursor_round_trip;
    Alcotest.test_case "iter closes a spooled cursor on consumer raise" `Quick
      test_iter_closes_on_raise;
    Alcotest.test_case "spool releases all files when on_row raises" `Quick
      test_spool_closes_source_on_raise;
    Alcotest.test_case
      "all plans, both styles, sizes 1/7/1024: batched = tuple (mat + \
       streaming)"
      `Slow test_lattice_materialized_streaming;
    Alcotest.test_case
      "all plans, sizes 1/7/1024: batched = tuple (resilient 0.3 + parallel)"
      `Slow test_lattice_resilient_parallel;
  ]

let props = [ prop_compile_eq_eval; prop_compile_pred_eq_eval_pred ]
