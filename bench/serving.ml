(* Serving experiment: queries/sec and latency percentiles for the query
   server, with the cache tiers on vs off, at 1/2/4 worker domains.

   The headline figures are deterministic and machine-independent, in
   the same simulated-time model the other experiments use: a request's
   service cost is its engine work (zero on a result-cache hit) plus the
   modeled cost of shipping the response bytes to the client.
   Throughput is the makespan of the request mix's service costs over N
   workers (greedy least-loaded list scheduling, as in the scaling
   experiment); percentiles come from a histogram of per-request
   latencies.  Alongside the model, each request's real wall-clock
   service time is measured too (mp50/mp90/mp99 columns) — informative
   only, never part of the committed baseline, so the report shows both
   the machine-independent model and what this machine actually did.
   Each server runs the same workload twice — the second pass is the
   warm one — and every response is checked byte-for-byte against the
   direct pipeline. *)

module R = Relational
module S = Silkroute
open Bench_common

let workload_cfg =
  {
    Server.Workload.default_config with
    Server.Workload.clients = 3;
    requests_per_client = 12;
    invalidate_every = 0;
  }

(* Modeled cost of shipping one response to the client, in ms. *)
let response_ms bytes =
  let t = R.Transfer.default in
  t.R.Transfer.per_stream_overhead
  +. (float_of_int bytes /. t.R.Transfer.bytes_per_ms)

let latency_ms work bytes = sim_query_ms work +. response_ms bytes

(* Local latency histogram (the registry machinery without the
   registry, so passes cannot contaminate each other). *)
let new_hist () =
  {
    Obs.Metrics.bounds = Obs.Metrics.duration_bounds;
    counts = Array.make (Array.length Obs.Metrics.duration_bounds + 1) 0;
    sum = 0.0;
    n = 0;
    min = infinity;
    max = neg_infinity;
  }

let observe (h : Obs.Metrics.histogram) x =
  let i = Obs.Metrics.bucket_index h.Obs.Metrics.bounds x in
  h.Obs.Metrics.counts.(i) <- h.Obs.Metrics.counts.(i) + 1;
  h.Obs.Metrics.sum <- h.Obs.Metrics.sum +. x;
  h.Obs.Metrics.n <- h.Obs.Metrics.n + 1;
  h.Obs.Metrics.min <- Float.min h.Obs.Metrics.min x;
  h.Obs.Metrics.max <- Float.max h.Obs.Metrics.max x

type pass = {
  requests : int;
  work : int;  (** engine work actually executed *)
  cost_units : int list;  (** per-request service cost in work units *)
  hist : Obs.Metrics.histogram;
  wall : Obs.Metrics.histogram;  (** measured wall-clock ms per request *)
  s_hits : int;
  p_hits : int;
  r_hits : int;
  identical : bool;
}

let replay server scripts expected =
  let work = ref 0 and s = ref 0 and p = ref 0 and r = ref 0 in
  let requests = ref 0 and identical = ref true in
  let costs = ref [] in
  let hist = new_hist () in
  let wall = new_hist () in
  let longest =
    Array.fold_left (fun acc ops -> max acc (Array.length ops)) 0 scripts
  in
  for i = 0 to longest - 1 do
    Array.iter
      (fun ops ->
        if i < Array.length ops then
          match ops.(i) with
          | Server.Protocol.Query { view; _ } as req -> (
              incr requests;
              let t0 = Obs.Clock.now_ns () in
              let reply = Server.Service.handle server req in
              observe wall
                (Obs.Clock.ns_to_ms (Int64.sub (Obs.Clock.now_ns ()) t0));
              match reply with
              | Server.Protocol.Result { xml; tiers; work = w; _ } ->
                  (match Hashtbl.find_opt expected view with
                  | Some reference when String.equal reference xml -> ()
                  | _ -> identical := false);
                  let bytes = String.length xml in
                  work := !work + w;
                  let ms = latency_ms w bytes in
                  costs := (w + int_of_float (response_ms bytes *. work_per_ms)) :: !costs;
                  observe hist ms;
                  if tiers.Server.Protocol.statement_hit then incr s;
                  if tiers.Server.Protocol.plan_hit then incr p;
                  if tiers.Server.Protocol.result_hit then incr r
              | _ -> identical := false)
          | req -> ignore (Server.Service.handle server req))
      scripts
  done;
  {
    requests = !requests;
    work = !work;
    cost_units = List.rev !costs;
    hist;
    wall;
    s_hits = !s;
    p_hits = !p;
    r_hits = !r;
    identical = !identical;
  }

let qps ~domains pass =
  let span = Experiments.makespan ~workers:domains pass.cost_units in
  let span_ms = float_of_int span /. work_per_ms in
  if span_ms <= 0.0 then 0.0
  else float_of_int pass.requests /. (span_ms /. 1000.0)

let print_pass ~cache ~domains ~label pass =
  let percentiles h =
    match Obs.Metrics.p50_90_99 h with
    | Some t -> t
    | None -> (0.0, 0.0, 0.0)
  in
  let p50, p90, p99 = percentiles pass.hist in
  let m50, m90, m99 = percentiles pass.wall in
  Printf.printf
    "%5s %7d %5s %8d %9d %8.1f %7.2f %7.2f %7.2f %7.2f %7.2f %7.2f %5d/%d/%d \
     %10s\n"
    (if cache then "on" else "off")
    domains label pass.requests pass.work (qps ~domains pass) p50 p90 p99 m50
    m90 m99 pass.s_hits pass.p_hits pass.r_hits
    (if pass.identical then "yes" else "NO!")

let run () =
  print_header
    "Serving: query server qps + latency percentiles (cache on/off, 1/2/4 \
     domains)";
  let db = Tpch.Gen.generate (Tpch.Gen.config config_a.scale) in
  print_config db config_a;
  let views = Server.Workload.standard_views db in
  let expected = Hashtbl.create 8 in
  List.iter
    (fun v ->
      match v.Server.Workload.wv_expected with
      | Some xml -> Hashtbl.replace expected v.Server.Workload.wv_text xml
      | None -> ())
    views;
  let scripts = Server.Workload.script ~views workload_cfg in
  Printf.printf
    "workload: %d clients x %d requests, strategies {%s}, response model \
     %.0f bytes/ms\n\n"
    workload_cfg.Server.Workload.clients
    workload_cfg.Server.Workload.requests_per_client
    (String.concat ", " workload_cfg.Server.Workload.strategies)
    R.Transfer.default.R.Transfer.bytes_per_ms;
  Printf.printf "%5s %7s %5s %8s %9s %8s %7s %7s %7s %7s %7s %7s %9s %10s\n"
    "cache" "domains" "pass" "requests" "work" "qps" "p50" "p90" "p99" "mp50"
    "mp90" "mp99" "hits" "identical";
  let ok = ref true in
  List.iter
    (fun cache ->
      List.iter
        (fun domains ->
          let config =
            {
              Server.Service.default_config with
              Server.Service.domains;
              statement_capacity = (if cache then 64 else 0);
              plan_capacity = (if cache then 256 else 0);
              result_capacity = (if cache then 16 * 1024 * 1024 else 0);
            }
          in
          let server = Server.Service.create ~config db in
          let cold = replay server scripts expected in
          let warm = replay server scripts expected in
          Server.Service.shutdown server;
          print_pass ~cache ~domains ~label:"cold" cold;
          print_pass ~cache ~domains ~label:"warm" warm;
          ok := !ok && cold.identical && warm.identical;
          if cache then ok := !ok && warm.work < cold.work
          else ok := !ok && warm.work = cold.work)
        [ 1; 2; 4 ])
    [ true; false ];
  Printf.printf
    "\nWith the tiers on, the warm pass re-executes nothing (strictly less \
     engine\nwork than cold); with them off both passes pay full price.  \
     Invariants\n(byte-identity, warm < cold with cache, warm = cold \
     without): %s\n"
    (if !ok then "yes" else "NO!")
