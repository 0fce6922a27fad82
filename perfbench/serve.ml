(* serve-zipf: the built `silkroute serve` binary in its own process,
   default config at sf=1, driven over its Unix socket by one closed-loop
   connection.  Each query draws (view, strategy, reduce) from a seeded
   Zipf law over the whole key space, whose results are far larger than
   the result tier: hot keys fit in it, the cold tail does not.  Every
   [invalidate_every] queries the connection sends an epoch-bumping
   Invalidate, alternating a x4 and a x1/4 skew of one table's catalog
   entry so the catalog does not drift.  Each one flushes the result
   tier and sets off a burst of misses.  The schedule is by query count,
   not by time: on a timed schedule a faster host fit more queries
   between flushes, so more of them hit, and the hit ratio amplified
   host noise into [ops_per_s].

   One connection, not two: with two, a session waiting for the OCaml
   runtime lock while the other executes a miss adds ~50 ms steps to the
   latency distribution, and which side of a step p90 falls on flipped
   from run to run. *)

module S = Silkroute
module P = Server.Protocol
open Common

let cli = "_build/default/bin/silkroute_cli.exe"
let invalidate_every = 180
let skew_table = "Supplier"

(* The Zipf exponent puts about a third of the queries on the result
   tier, so the median is a miss: a hit takes ~0.15 ms, and at that
   scale scheduling noise on this 2-core box moved it by half from run
   to run. *)
let zipf_exponent = 1.0
let draw_block = 100
let warmup_queries = 150

(* --- the server process --------------------------------------------- *)

type server = { pid : int; socket : string; mutable running : bool }

(* Servers not yet stopped; killed on any way out of the bench. *)
let live : server list ref = ref []

let kill s =
  if s.running then begin
    s.running <- false;
    (try Unix.kill s.pid Sys.sigkill with Unix.Unix_error _ -> ());
    (try ignore (Unix.waitpid [] s.pid) with Unix.Unix_error _ -> ());
    try Sys.remove s.socket with Sys_error _ -> ()
  end

let () = at_exit (fun () -> List.iter kill !live)

(* Waits up to [timeout_s] for [pid] to exit. *)
let wait_exit pid ~timeout_s =
  let deadline = now () +. timeout_s in
  let rec loop () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when now () < deadline ->
        Unix.sleepf 0.005;
        loop ()
    | 0, _ -> None
    | _, status -> Some status
  in
  loop ()

let request s req = Server.Workload.request ~socket:s.socket req

(* Spawns the server and waits until it answers [H]; returns it with
   the spawn-to-ready time in ms. *)
let spawn (ctx : ctx) ~extra =
  if not (Sys.file_exists cli) then failwith (cli ^ " is not built");
  let socket = state_path (Printf.sprintf "serve-%d.sock" (Unix.getpid ())) in
  (try Sys.remove socket with Sys_error _ -> ());
  let args =
    [ "serve"; "--socket"; socket; "--scale"; "1" ]
    @ [ "--seed"; string_of_int ctx.seed ]
    @ extra
  in
  let t0 = now () in
  let pid =
    Unix.create_process cli
      (Array.of_list (cli :: args))
      Unix.stdin Unix.stderr Unix.stderr
  in
  let s = { pid; socket; running = true } in
  live := s :: !live;
  let rec ready () =
    (match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ -> ()
    | _ ->
        s.running <- false;
        failwith "silkroute serve exited during start-up");
    if ms_since t0 > 60_000.0 then
      failwith "silkroute serve not ready after 60 s";
    match request s P.Health with
    | Some (P.Info _) -> ()
    | _ -> failwith "silkroute serve answered H with something else"
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) ->
        Unix.sleepf 0.001;
        ready ()
  in
  ready ();
  (s, ms_since t0)

(* Stops the server with [Shutdown]; true when it acknowledged, exited
   with status 0 and removed its socket.  Every connection must be
   closed first: the server joins its session threads on the way out. *)
let stop s =
  let ack =
    match request s P.Shutdown with Some (P.Info _) -> true | _ -> false
  in
  let status = wait_exit s.pid ~timeout_s:30.0 in
  if status = None then kill s;
  s.running <- false;
  live := List.filter (fun x -> x != s) !live;
  ack && status = Some (Unix.WEXITED 0) && not (Sys.file_exists s.socket)

let scrape s =
  match request s P.Metrics with
  | Some (P.Info text) -> text
  | _ -> failwith "silkroute serve did not answer M"

(* --- key space --------------------------------------------------------- *)

(* [strategy] is the wire name of [plan]. *)
type key = {
  view : string;
  strategy : string;
  plan : S.Middleware.strategy;
  reduce : bool;
}

(* Every (view, strategy, reduce) of the three views, in the order that
   fixes each key's popularity rank: one fixed shuffle. *)
let key_ranks db =
  let keys =
    List.concat_map
      (fun (view, text) ->
        let p = S.Middleware.prepare_text db text in
        let masks = 1 lsl S.View_tree.edge_count p.S.Middleware.tree in
        let edges m = ("edges:" ^ string_of_int m, S.Middleware.Edges m) in
        let strategies =
          [
            ("greedy", S.Middleware.Greedy S.Planner.default_params);
            ("unified", S.Middleware.Unified);
            ("partitioned", S.Middleware.Fully_partitioned);
          ]
          @ List.init masks edges
        in
        List.concat_map
          (fun (strategy, plan) ->
            List.map
              (fun reduce -> { view; strategy; plan; reduce })
              [ true; false ])
          strategies)
      views
  in
  Harness.shuffle (Tpch.Rng.create 0L) (Array.of_list keys)

(* --- the closed-loop client ------------------------------------------- *)

(* The run's draw stream, its query count and the direction of the next
   catalog skew; all carry on across phases.  The query sequence is one
   fixed stream, the same for every workload seed (which sets the TPC-H
   data): with ~800 queries a run, which mid-popularity keys a seed
   happened to draw twice moved the hit ratio, and with it every figure,
   by 10-20%. *)
type client = {
  ranks : key array;
  draws : Harness.draws;
  mutable sent : int;
  mutable skew_up : bool;
}

let client db =
  let ranks = key_ranks db in
  let cdf = Harness.zipf ~n:(Array.length ranks) ~s:zipf_exponent in
  {
    ranks;
    draws =
      Harness.draws ~cdf ~block:draw_block
        (Tpch.Rng.split (Tpch.Rng.create 0L) "serve-zipf");
    sent = 0;
    skew_up = true;
  }

(* One phase of queries on a fresh connection, with its tallies. *)
type phase = {
  mutable ms : float list;  (** per-query latency at the client *)
  mutable times : float list;  (** when each query ran *)
  cal : Calib.t;  (** kernel samples between queries *)
  mutable queries : int;
  mutable results : int;
  mutable rejected : int;
  mutable failed : int;
  mutable invalidations_sent : int;
  mutable invalidations_ok : int;
  mutable work : int;
  mutable bytes : int;
  mutable plan_misses : key list;
      (** greedy queries that missed the plan tier *)
  mutable result_misses : key list;
}

let record ph outs key = function
  | Some (P.Result { xml; tiers; work; _ }) ->
      Harness.add_output outs key.view xml;
      ph.results <- ph.results + 1;
      ph.work <- ph.work + work;
      ph.bytes <- ph.bytes + String.length xml;
      if not tiers.P.result_hit then
        ph.result_misses <- key :: ph.result_misses;
      if (not tiers.P.plan_hit) && key.strategy = "greedy" then
        ph.plan_misses <- key :: ph.plan_misses
  | Some (P.Rejected _) -> ph.rejected <- ph.rejected + 1
  | Some (P.Failed _ | P.Info _) | None -> ph.failed <- ph.failed + 1

(* Runs queries for [seconds] and at least [min_queries], checking each
   result into [outs]. *)
let phase cl s ~seconds ~min_queries outs =
  let t0 = now () in
  let ph =
    {
      ms = [];
      times = [];
      cal = Calib.create ();
      queries = 0;
      results = 0;
      rejected = 0;
      failed = 0;
      invalidations_sent = 0;
      invalidations_ok = 0;
      work = 0;
      bytes = 0;
      plan_misses = [];
      result_misses = [];
    }
  in
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let ic = Unix.in_channel_of_descr fd in
  let oc = Unix.out_channel_of_descr fd in
  let call req =
    P.write_request oc req;
    P.read_reply ic
  in
  let invalidate () =
    let factor = if cl.skew_up then 4.0 else 0.25 in
    cl.skew_up <- not cl.skew_up;
    ph.invalidations_sent <- ph.invalidations_sent + 1;
    match call (P.Invalidate { table = skew_table; factor }) with
    | Some (P.Info _) -> ph.invalidations_ok <- ph.invalidations_ok + 1
    | _ -> ()
  in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      Unix.connect fd (Unix.ADDR_UNIX s.socket);
      Calib.sample ph.cal;
      let deadline = t0 +. seconds in
      while ph.queries < min_queries || now () < deadline do
        if cl.sent > 0 && cl.sent mod invalidate_every = 0 then invalidate ();
        let key = cl.ranks.(Harness.draw cl.draws) in
        let view = List.assoc key.view views in
        let q0 = now () in
        let reply =
          call (P.Query { view; strategy = key.strategy; reduce = key.reduce })
        in
        let q1 = now () in
        ph.ms <- (q1 -. q0) *. 1000.0 :: ph.ms;
        ph.times <- ((q0 +. q1) /. 2.0) :: ph.times;
        ph.queries <- ph.queries + 1;
        cl.sent <- cl.sent + 1;
        record ph outs key reply;
        Calib.tick ph.cal
      done;
      Calib.sample ph.cal);
  ph

let scaled ph = Calib.scale ph.cal ~times:ph.times ph.ms
let p50 ph = Harness.percentile (Harness.sorted_of_list (scaled ph)) 0.5

let phase_report name ph =
  Printf.printf
    "phase %-9s sent=%d succeeded=%d rejected=%d failed=%d \
     invalidations=%d/%d\n"
    name ph.queries ph.results ph.rejected ph.failed ph.invalidations_ok
    ph.invalidations_sent

(* --- the workload -------------------------------------------------------- *)

(* Sets the server up [setup_reps] times, with the calibration kernel
   before each and after the last; every one but the last is stopped
   again.  Returns the running server, the median spawn-to-ready ms
   scaled to the reference host, and whether every stop was clean. *)
let setup ctx =
  let cal = Calib.create () in
  let ms = ref [] and times = ref [] and clean = ref true in
  let last = ref None in
  for i = 1 to setup_reps do
    Calib.sample cal;
    let s, spawn_ms = spawn ctx ~extra:[] in
    ms := spawn_ms :: !ms;
    times := (now () -. (spawn_ms /. 2000.0)) :: !times;
    if i < setup_reps then clean := stop s && !clean else last := Some s
  done;
  Calib.sample cal;
  ( Option.get !last,
    Harness.median (Calib.scale cal ~times:!times !ms),
    !clean )

(* Warm-up and one measured phase against [s]; returns the phase, the
   exposition diff over it and the closing scrape. *)
let measure (ctx : ctx) cl s phases outs =
  let warm = phase cl s ~seconds:0.0 ~min_queries:warmup_queries outs in
  phase_report "warm-up" warm;
  let before = scrape s in
  let ph = phase cl s ~seconds:ctx.seconds ~min_queries:min_ops outs in
  let after = scrape s in
  phase_report "timed" ph;
  phases := warm :: ph :: !phases;
  (ph, Harness.scrape_diff ~before ~after, (Obs.Expose.parse after).values)

let tier_ratio diff tier =
  let v k = Harness.series diff (Printf.sprintf "%s{tier=\"%s\"}" k tier) in
  Harness.ratio
    (v "silkroute_cache_hits_total")
    (v "silkroute_cache_hits_total" +. v "silkroute_cache_misses_total")

(* The traced phase's misses, replayed in the bench on the same keys:
   greedy planning for every plan-tier miss (its cost-oracle requests),
   and for every result-tier miss the executor and tagger calls the
   server makes, each inside a [bench.op] span carrying its index, then
   the SQL-shipping probes.  As in the server, views are prepared once
   and planned against one shared catalog; greedy plans come from the
   bench's unskewed copy of it. *)
type replay = {
  requests : int;
  ops : int;
  sql_bytes : int;
  r_out_bytes : int;
  r_minor_words : float;
  r_alloc_words : float;
  r_major_collections : int;
}

let replay_misses db ph =
  let stats = Relational.Stats.analyze db in
  let oracle = Relational.Cost.oracle_with_stats db stats in
  let prepared =
    List.map
      (fun (v, text) ->
        let p = S.Middleware.prepare_text db text in
        (v, { p with S.Middleware.stats = Lazy.from_val stats }))
      views
  in
  let greedy k (p : S.Middleware.prepared) =
    S.Planner.gen_plan ~reduce:k.reduce db oracle p.tree p.labels
      S.Planner.default_params
  in
  let requests = ref 0 and ops = ref 0 and sql_bytes = ref 0 in
  let out_bytes = ref 0 and minor = ref 0.0 and alloc = ref 0.0 in
  let majors = ref 0 in
  List.iter
    (fun k ->
      let r = greedy k (List.assoc k.view prepared) in
      requests := !requests + r.S.Planner.requests)
    ph.plan_misses;
  let replay k =
    let p = List.assoc k.view prepared in
    let partition =
      Obs.Control.with_enabled false (fun () ->
          match k.plan with
          | S.Middleware.Greedy _ -> S.Planner.best_plan p.tree (greedy k p)
          | plan -> S.Middleware.partition_of p plan)
    in
    let in_op f = Obs.Span.with_base_attrs [ Obs.Attr.int "op" !ops ] f in
    let g0 = Gc.quick_stat () in
    let e, xml =
      in_op (fun () ->
          Obs.Span.with_span "bench.op" (fun () ->
              let e = S.Middleware.execute ~reduce:k.reduce p partition in
              (e, S.Middleware.xml_string_of p e)))
    in
    let g1 = Gc.quick_stat () in
    let dminor = g1.minor_words -. g0.minor_words in
    minor := !minor +. dminor;
    alloc :=
      !alloc +. dminor
      +. (g1.major_words -. g0.major_words)
      -. (g1.promoted_words -. g0.promoted_words);
    majors := !majors + (g1.major_collections - g0.major_collections);
    out_bytes := !out_bytes + String.length xml;
    in_op (fun () ->
        Obs.Span.with_span "bench.probe" (fun () ->
            List.iter
              (fun (se : S.Middleware.stream_exec) ->
                let q = se.se_stream.S.Sql_gen.query in
                sql_bytes := !sql_bytes + Layers.probe_stream db q)
              e.S.Middleware.per_stream));
    incr ops
  in
  List.iter replay ph.result_misses;
  {
    requests = !requests;
    ops = !ops;
    sql_bytes = !sql_bytes;
    r_out_bytes = !out_bytes;
    r_minor_words = !minor;
    r_alloc_words = !alloc;
    r_major_collections = !majors;
  }

let end_to_end ~ready_ms ~rss ~udiff ph =
  let timed, extra =
    timings ~ms:ph.ms ~scaled:(scaled ph)
      ~kernel_ms:(List.map snd ph.cal.samples)
  in
  ( (metric "setup_s" "s" (ready_ms /. 1000.0) setup_reps :: timed)
    @ [ metric "peak_rss_mb" "MB" rss 1 ],
    extra
    @ [
        metric "cache.result.hit_ratio" "ratio" (tier_ratio udiff "result")
          ph.queries;
      ] )

(* Per-layer metrics: [u]/[udiff]/[uafter] are the untraced phase and
   its scrapes (default config), [tr]/[tdiff] the traced phase against a
   --telemetry server, [r] and [t] the replay and its span table. *)
let per_layer ~gen_ms ~ready_ms ~analyze_ms ~u ~udiff ~uafter ~tr ~tdiff r t =
  let n = tr.queries in
  let per x = Harness.ratio x (float_of_int n) in
  let d k = Harness.series tdiff k and ud k = Harness.series udiff k in
  let span_sum name =
    d (Printf.sprintf "silkroute_span_ms_%s_sum" (Obs.Expose.sanitize name))
  in
  let un = int_of_float (ud "silkroute_server_queries_total") in
  let uper x = Harness.ratio x (float_of_int un) in
  let misses = d "silkroute_cache_misses_total{tier=\"result\"}" in
  let per_miss x = Harness.ratio x misses in
  let requests = d "silkroute_server_request_ms_count" in
  let request_ms =
    Harness.ratio (d "silkroute_server_request_ms_sum") requests
  in
  let weight = List.assoc "silkroute_cache_weight{tier=\"result\"}" uafter in
  let evictions = ud "silkroute_cache_evictions_total{tier=\"result\"}" in
  Layers.exec_metrics t ~ops:n ~root:"bench.op"
  @ [
      (* the server's own span histograms: these layers sit behind its
         statement and plan tiers *)
      ("prepare.ms_per_op", per (span_sum "middleware.prepare"), n);
      ("plan.self_ms_per_op", per (span_sum "middleware.plan"), n);
      ("planner.gen_plan_ms_per_op", per (span_sum "planner.gen_plan"), n);
      ("sqlgen.ms_per_op", per (span_sum "sqlgen.streams"), n);
      ( "sqlgen.streams_per_op",
        per (d "silkroute_span_ms_sqlgen_stream_count"),
        n );
      ("tpch.gen_ms", gen_ms, setup_reps);
      ("server.ready_ms", ready_ms, setup_reps);
      ("stats.analyze_ms", analyze_ms, 3);
      ("planner.requests_per_op", per (float_of_int r.requests), n);
      ("sql.bytes_per_op", per (float_of_int r.sql_bytes), n);
      ("exec.work_per_op", per (float_of_int tr.work), n);
      ( "exec.tuples_per_op",
        per (d "silkroute_execute_stream_rows_sum"),
        n );
      ("out.bytes_per_op", per (float_of_int tr.bytes), n);
      ("gc.minor_words_per_op", per r.r_minor_words, n);
      ( "gc.major_collections_per_op",
        per (float_of_int r.r_major_collections),
        n );
      ( "gc.alloc_words_per_byte",
        Harness.ratio r.r_alloc_words (float_of_int r.r_out_bytes),
        r.ops );
      ("cache.statement.hit_ratio", tier_ratio udiff "statement", un);
      ("cache.plan.hit_ratio", tier_ratio udiff "plan", un);
      ("cache.result.hit_ratio", tier_ratio udiff "result", un);
      ("cache.result.evictions_per_kop", 1000.0 *. uper evictions, un);
      ("cache.result.weight_mb", weight /. 1048576.0, 1);
      ("admission.queued_frac", uper (ud "silkroute_server_queued_total"), un);
      ( "admission.rejected_frac",
        uper (ud "silkroute_server_rejected_total"),
        un );
      ("server.request_ms_mean", request_ms, int_of_float requests);
      ( "server.execute_ms_per_miss",
        per_miss (span_sum "middleware.execute"),
        int_of_float misses );
      ( "server.tag_ms_per_miss",
        per_miss (span_sum "middleware.tag"),
        int_of_float misses );
      ("server.outside_ms_mean", Harness.mean tr.ms -. request_ms, n);
      ("obs.trace_overhead", (p50 tr /. p50 u) -. 1.0, n);
    ]

let run (ctx : ctx) =
  let db, gen_ms =
    repeat_setup (fun () -> generate ~sf:1.0 ~seed:ctx.seed)
  in
  let cl = client db in
  let outs = Harness.outputs () and phases = ref [] in
  let s, ready_ms, clean_setup = setup ctx in
  let u, udiff, uafter = measure ctx cl s phases outs in
  let rss = peak_rss_mb ~pid:s.pid () in
  let clean = stop s && clean_setup in
  let (metrics, extra), clean =
    if not ctx.traced then (end_to_end ~ready_ms ~rss ~udiff u, clean)
    else begin
      let analyze_ms = analyze_ms db in
      let s, _ = spawn ctx ~extra:[ "--telemetry" ] in
      let tr, tdiff, _ = measure ctx cl s phases outs in
      let clean = stop s && clean in
      Obs.Span.reset ();
      Obs.Control.set_enabled true;
      let r =
        Fun.protect
          ~finally:(fun () -> Obs.Control.set_enabled false)
          (fun () -> replay_misses db tr)
      in
      Layers.write_traces ctx;
      let t = Layers.of_spans (Obs.Span.spans ()) in
      let values =
        per_layer ~gen_ms ~ready_ms ~analyze_ms ~u ~udiff ~uafter ~tr ~tdiff
          r t
      in
      ((Layers.finish Harness.per_layer values, []), clean)
    end
  in
  let count f = List.fold_left (fun acc ph -> acc + f ph) 0 !phases in
  let refused = count (fun ph -> ph.rejected + ph.failed) in
  let failed = refused + mismatches ctx ~sf:1.0 db outs in
  { attempted = count (fun ph -> ph.queries); failed; clean; metrics; extra }
