(* The in-process workloads: one closed-loop caller in the bench process
   calling the middleware's public functions, as `silkroute run` does
   after loading.

   export-q1: Query 1 under the greedy planner at sf=8, every op the same
   large document.  plan-sweep: all 2^|E| edge-mask plans of Query 1 and
   Query 2 at sf=1 in a seeded shuffled order. *)

module S = Silkroute
open Common

type op = { view : string; strategy : S.Middleware.strategy }

(* One op: prepare -> partition -> execute (reduce on, tuple path) ->
   serialize. *)
let run_op db op =
  let p = S.Middleware.prepare_text db (List.assoc op.view views) in
  let partition = S.Middleware.partition_of p op.strategy in
  let e = S.Middleware.execute ~reduce:true p partition in
  (e, S.Middleware.xml_string_of p e)

type phase = {
  ms : float list;  (** per-op wall time *)
  scaled : float list;  (** [ms] scaled to the reference host *)
  kernel_ms : float list;  (** the calibration kernel's times *)
  n : int;
  out_bytes : int;
  work : int;
  tuples : int;
  sql_bytes : int;
  minor_words : float;
  alloc_words : float;  (** minor + major - promoted *)
  major_collections : int;
}

(* Words allocated between two GC snapshots: minor + major - promoted. *)
let alloc_words (g0 : Gc.stat) (g1 : Gc.stat) =
  g1.minor_words -. g0.minor_words
  +. (g1.major_words -. g0.major_words)
  -. (g1.promoted_words -. g0.promoted_words)

(* Runs ops [from], [from+1], ... cycling through [ops], for [seconds]
   and at least [min_ops] ops.  Traced, each op runs inside a [bench.op]
   span carrying its index, and the SQL-shipping probes follow it
   outside the timer.  The calibration kernel runs between ops, outside
   the timer and the GC tallies. *)
let phase ~db ~ops ~from ~seconds ~min_ops ~traced outs =
  let ms = ref [] and times = ref [] and n = ref 0 and out_bytes = ref 0 in
  let cal = Calib.create () in
  Calib.sample cal;
  (* the kernel's own allocations, taken out of the GC tallies *)
  let k_minor = ref 0.0 and k_alloc = ref 0.0 and k_majors = ref 0 in
  let work = ref 0 and tuples = ref 0 and sql_bytes = ref 0 in
  let g0 = Gc.quick_stat () in
  let deadline = now () +. seconds in
  while !n < min_ops || now () < deadline do
    let i = from + !n in
    let op = ops.(i mod Array.length ops) in
    let in_op f =
      if traced then Obs.Span.with_base_attrs [ Obs.Attr.int "op" i ] f
      else f ()
    in
    let s0 = now () in
    let e, xml =
      in_op (fun () ->
          if traced then Obs.Span.with_span "bench.op" (fun () -> run_op db op)
          else run_op db op)
    in
    let s1 = now () in
    ms := (s1 -. s0) *. 1000.0 :: !ms;
    times := ((s0 +. s1) /. 2.0) :: !times;
    if traced then
      in_op (fun () ->
          Obs.Span.with_span "bench.probe" (fun () ->
              List.iter
                (fun (se : S.Middleware.stream_exec) ->
                  let q = se.se_stream.S.Sql_gen.query in
                  sql_bytes := !sql_bytes + Layers.probe_stream db q)
                e.S.Middleware.per_stream));
    Harness.add_output outs op.view xml;
    out_bytes := !out_bytes + String.length xml;
    work := !work + e.S.Middleware.work;
    tuples := !tuples + e.S.Middleware.tuples;
    incr n;
    let k0 = Gc.quick_stat () in
    Calib.tick cal;
    let k1 = Gc.quick_stat () in
    k_minor := !k_minor +. (k1.minor_words -. k0.minor_words);
    k_alloc := !k_alloc +. alloc_words k0 k1;
    k_majors := !k_majors + (k1.major_collections - k0.major_collections)
  done;
  let g1 = Gc.quick_stat () in
  Calib.sample cal;
  {
    ms = !ms;
    scaled = Calib.scale cal ~times:!times !ms;
    kernel_ms = List.map snd cal.samples;
    n = !n;
    out_bytes = !out_bytes;
    work = !work;
    tuples = !tuples;
    sql_bytes = !sql_bytes;
    minor_words = g1.minor_words -. g0.minor_words -. !k_minor;
    alloc_words = alloc_words g0 g1 -. !k_alloc;
    major_collections =
      g1.major_collections - g0.major_collections - !k_majors;
  }

let p50 ph = Harness.percentile (Harness.sorted_of_list ph.scaled) 0.5

(* End-to-end metrics of an untraced phase, and the printed-only ones. *)
let end_to_end ~setup_ms ~rss ph =
  let timed, extra =
    timings ~ms:ph.ms ~scaled:ph.scaled ~kernel_ms:ph.kernel_ms
  in
  ( (metric "setup_s" "s" (setup_ms /. 1000.0) setup_reps :: timed)
    @ [ metric "peak_rss_mb" "MB" rss 1 ],
    extra
    @ [
        metric "alloc_words_per_byte" "words/B"
          (ph.alloc_words /. float_of_int ph.out_bytes)
          ph.n;
      ] )

(* Per-layer metrics from the untraced phase [u] (GC, overhead base)
   and the traced phase [tr] with its span table [t]. *)
let per_layer ~setup_ms ~analyze_ms u tr t =
  let ops = tr.n in
  let per x = Harness.ratio x (float_of_int ops) in
  let per_u x = Harness.ratio x (float_of_int u.n) in
  let get = Layers.get t in
  let root = get "bench.op" in
  let request_ms = Harness.ratio root.total_ms (float_of_int root.calls) in
  let absent name = (name, 0.0, ops) in
  Layers.plan_metrics t ~ops
  @ Layers.exec_metrics t ~ops ~root:"bench.op"
  @ [
      ("tpch.gen_ms", setup_ms, setup_reps);
      (* in-process, the serving side is this process: ready once the
         database exists *)
      ("server.ready_ms", setup_ms, setup_reps);
      ("stats.analyze_ms", analyze_ms, 3);
      ( "planner.requests_per_op",
        per (float_of_int (get "middleware.plan").work),
        ops );
      ("sql.bytes_per_op", per (float_of_int tr.sql_bytes), ops);
      ("exec.work_per_op", per (float_of_int tr.work), ops);
      ("exec.tuples_per_op", per (float_of_int tr.tuples), ops);
      ("out.bytes_per_op", per (float_of_int tr.out_bytes), ops);
      ("gc.minor_words_per_op", per_u u.minor_words, u.n);
      ( "gc.major_collections_per_op",
        per_u (float_of_int u.major_collections),
        u.n );
      ( "gc.alloc_words_per_byte",
        u.alloc_words /. float_of_int u.out_bytes,
        u.n );
      (* no cache and no admission on the in-process path *)
      absent "cache.statement.hit_ratio";
      absent "cache.plan.hit_ratio";
      absent "cache.result.hit_ratio";
      absent "cache.result.evictions_per_kop";
      absent "cache.result.weight_mb";
      absent "admission.queued_frac";
      absent "admission.rejected_frac";
      (* every in-process op is a miss served by the call itself *)
      ("server.request_ms_mean", request_ms, root.calls);
      ( "server.execute_ms_per_miss",
        per (get "middleware.execute").total_ms,
        ops );
      ("server.tag_ms_per_miss", per (get "middleware.tag").total_ms, ops);
      ("server.outside_ms_mean", Harness.mean tr.ms -. request_ms, ops);
      ("obs.trace_overhead", (p50 tr /. p50 u) -. 1.0, ops);
    ]

let run (ctx : ctx) ~sf ~warmup ~make_ops =
  let (db, ops), setup_ms =
    repeat_setup (fun () ->
        let db = generate ~sf ~seed:ctx.seed in
        (db, make_ops db))
  in
  let outs = Harness.outputs () and from = ref 0 in
  let next ~seconds ~min_ops ~traced =
    let ph = phase ~db ~ops ~from:!from ~seconds ~min_ops ~traced outs in
    from := !from + ph.n;
    ph
  in
  ignore (next ~seconds:0.0 ~min_ops:warmup ~traced:false);
  let u = next ~seconds:ctx.seconds ~min_ops ~traced:false in
  let rss = peak_rss_mb () in
  let metrics, extra =
    if not ctx.traced then end_to_end ~setup_ms ~rss u
    else begin
      let analyze_ms = analyze_ms db in
      Obs.Span.reset ();
      Obs.Metrics.reset ();
      Obs.Control.set_enabled true;
      let tr =
        Fun.protect
          ~finally:(fun () -> Obs.Control.set_enabled false)
          (fun () -> next ~seconds:ctx.seconds ~min_ops:1 ~traced:true)
      in
      let t = Layers.of_spans (Obs.Span.spans ()) in
      Layers.write_traces ctx;
      ( Layers.finish Harness.per_layer
          (per_layer ~setup_ms ~analyze_ms u tr t),
        [] )
    end
  in
  let failed = mismatches ctx ~sf db outs in
  { attempted = !from; failed; clean = true; metrics; extra }

let export_q1 ctx =
  run ctx ~sf:8.0 ~warmup:2 ~make_ops:(fun _ ->
      let greedy = S.Middleware.Greedy S.Planner.default_params in
      [| { view = "q1"; strategy = greedy } |])

(* Every edge mask of Query 1 and Query 2, shuffled by the workload
   seed. *)
let plan_sweep (ctx : ctx) =
  run ctx ~sf:1.0 ~warmup:16 ~make_ops:(fun db ->
      let masks view =
        let p = S.Middleware.prepare_text db (List.assoc view views) in
        List.init
          (1 lsl S.View_tree.edge_count p.S.Middleware.tree)
          (fun m -> { view; strategy = S.Middleware.Edges m })
      in
      let seed = Tpch.Rng.create (Int64.of_int ctx.seed) in
      Harness.shuffle
        (Tpch.Rng.split seed "plan-sweep")
        (Array.of_list (masks "q1" @ masks "q2")))
