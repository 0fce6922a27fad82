(* Arithmetic of the wall-clock benchmark, free of I/O so that
   selftest.ml can pin it: nearest-rank percentiles and the rule that
   decides whether one is reported, host-speed scaling of op times,
   exposition scrape diffs, the seeded Zipf draws and shuffle, the
   output tally, the declared metric names and the result line the
   benchmark prints. *)

(* ceil (q * n), robust to q * n landing a hair above an integer
   (0.9 *. 100. = 90.00000000000001). *)
let rank_of ~n q =
  let x = q *. float_of_int n in
  let r = Float.round x in
  let r = if Float.abs (x -. r) < 1e-9 then r else Float.ceil x in
  max 1 (min n (int_of_float r))

(* Nearest-rank percentile of an ascending array: the smallest sample
   with at least a share [q] of all samples at or below it. *)
let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then invalid_arg "Harness.percentile: no samples";
  sorted.(rank_of ~n q - 1)

(* Samples strictly above the nearest-rank [q] percentile. *)
let beyond ~n q = n - rank_of ~n q

(* A percentile is reported only when at least ten samples lie beyond
   it: p90 needs 100 samples, p99 needs 1000. *)
let reportable ~n q = n > 0 && beyond ~n q >= 10

let sorted_of_list xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let median xs = percentile (sorted_of_list xs) 0.5
let mean xs =
  List.fold_left ( +. ) 0.0 xs /. float_of_int (max 1 (List.length xs))

(* Ratio with a zero base read as 0: a layer that never ran on a
   workload's path. *)
let ratio num den = if den = 0.0 then 0.0 else num /. den

(* --- host-speed scaling --------------------------------------------------- *)

(* Kernel samples around a moment that set its scale. *)
let scale_window = 5

(* Scales each op time in [ms], taken at the matching moment of [times],
   by [reference_ms] over the median of the [scale_window] kernel
   [samples] (moment, ms) nearest to it in time. *)
let scale_to_reference ~reference_ms ~samples ~times ms =
  let s = Array.of_list samples in
  Array.sort (fun (a, _) (b, _) -> Float.compare a b) s;
  let n = Array.length s in
  if n = 0 then invalid_arg "Harness.scale_to_reference: no kernel samples";
  let k = min scale_window n in
  let at t =
    (* first sample at or after [t] *)
    let lo = ref 0 and hi = ref n in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if fst s.(mid) < t then lo := mid + 1 else hi := mid
    done;
    (* the [k] nearest: grow a window from the split, nearer side first *)
    let l = ref !lo and r = ref !lo in
    while !r - !l < k do
      if !l = 0 then incr r
      else if !r = n then decr l
      else if t -. fst s.(!l - 1) <= fst s.(!r) -. t then decr l
      else incr r
    done;
    median (List.init k (fun i -> snd s.(!l + i)))
  in
  List.map2 (fun t x -> x *. reference_ms /. at t) times ms

(* --- exposition scrapes ------------------------------------------------- *)

(* Per-series change between two scrapes of the server's [M] exposition,
   keyed by the exact [name{labels}] syntax; a series missing from the
   first scrape counts from zero. *)
let scrape_diff ~before ~after =
  let b = Hashtbl.create 256 in
  List.iter
    (fun (k, v) -> Hashtbl.replace b k v)
    (Obs.Expose.parse before).values;
  List.map
    (fun (k, v) ->
      (k, v -. Option.value ~default:0.0 (Hashtbl.find_opt b k)))
    (Obs.Expose.parse after).values

let series diff key = Option.value ~default:0.0 (List.assoc_opt key diff)

(* --- seeded draws ------------------------------------------------------- *)

(* Cumulative weights of a Zipf-like law over ranks 0..n-1: rank r has
   weight 1/(r+1)^s. *)
let zipf ~n ~s =
  if n < 1 then invalid_arg "Harness.zipf: n must be >= 1";
  let w = Array.init n (fun r -> 1.0 /. (float_of_int (r + 1) ** s)) in
  let total = Array.fold_left ( +. ) 0.0 w in
  let acc = ref 0.0 in
  Array.map
    (fun x ->
      acc := !acc +. x;
      !acc /. total)
    w

(* The rank whose cumulative weight first exceeds [u] in [0, 1). *)
let zipf_rank cdf u =
  let lo = ref 0 and hi = ref (Array.length cdf - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if cdf.(mid) > u then hi := mid else lo := mid + 1
  done;
  !lo

let shuffle rng a =
  let a = Array.copy a in
  for i = Array.length a - 1 downto 1 do
    let j = Tpch.Rng.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* Seeded Zipf draws, stratified: each block of [block] consecutive draws
   takes one uniform from each of the [block] equal slices of [0, 1), in
   a shuffled order.  Every block then holds the law's head and tail in
   their exact proportions, so a run's key mix, and with it the cache hit
   ratio, does not swing with the sampling noise of independent draws. *)
type draws = {
  cdf : float array;
  rng : Tpch.Rng.t;
  block : int;
  mutable pending : float list;
}

let draws ~cdf ~block rng = { cdf; rng; block; pending = [] }

let draw d =
  if d.pending = [] then begin
    let slice j =
      (float_of_int j +. Tpch.Rng.float d.rng) /. float_of_int d.block
    in
    d.pending <- Array.to_list (shuffle d.rng (Array.init d.block slice))
  end;
  let u = List.hd d.pending in
  d.pending <- List.tl d.pending;
  zipf_rank d.cdf u

(* --- output checking ------------------------------------------------------ *)

(* Distinct outputs seen per view, with how many ops produced each;
   they are compared against the oracle once the run is over.  At most
   one variant can equal it, so an op whose output would be a
   [max_variants]+1-th distinct variant is a failure outright. *)
type outputs = {
  variants : (string, (string * int ref) list ref) Hashtbl.t;
  mutable overflow : int;
}

let max_variants = 8
let outputs () = { variants = Hashtbl.create 4; overflow = 0 }

let add_output o view xml =
  let vs =
    match Hashtbl.find_opt o.variants view with
    | Some vs -> vs
    | None ->
        let vs = ref [] in
        Hashtbl.add o.variants view vs;
        vs
  in
  match List.find_opt (fun (s, _) -> String.equal s xml) !vs with
  | Some (_, c) -> incr c
  | None ->
      if List.length !vs < max_variants then vs := (xml, ref 1) :: !vs
      else o.overflow <- o.overflow + 1

(* Ops whose output differs from [expected view]. *)
let mismatches o ~expected =
  Hashtbl.fold
    (fun view vs acc ->
      let e = expected view in
      List.fold_left
        (fun acc (xml, c) -> if String.equal xml e then acc else acc + !c)
        acc !vs)
    o.variants o.overflow

(* --- declared metrics and the result line ------------------------------- *)

(* The metrics BENCHMARK.json declares, with their units. *)
let end_to_end =
  [
    ("setup_s", "s");
    ("ops_per_s", "ops/s");
    ("op_ms_p50", "ms");
    ("op_ms_p90", "ms");
    ("peak_rss_mb", "MB");
  ]

let per_layer =
  [
    ("tpch.gen_ms", "ms");
    ("server.ready_ms", "ms");
    ("prepare.ms_per_op", "ms");
    ("stats.analyze_ms", "ms");
    ("plan.self_ms_per_op", "ms");
    ("planner.gen_plan_ms_per_op", "ms");
    ("planner.requests_per_op", "count");
    ("sqlgen.ms_per_op", "ms");
    ("sqlgen.streams_per_op", "count");
    ("sql.print_ms_per_op", "ms");
    ("sql.parse_ms_per_op", "ms");
    ("plan.lower_ms_per_op", "ms");
    ("sql.bytes_per_op", "B");
    ("exec.scan.self_ms_per_op", "ms");
    ("exec.hash-join.self_ms_per_op", "ms");
    ("exec.sort.self_ms_per_op", "ms");
    ("exec.query.self_ms_per_op", "ms");
    ("exec.hash-join.minor_kw_per_op", "kwords");
    ("exec.sort.minor_kw_per_op", "kwords");
    ("exec.work_per_op", "count");
    ("exec.tuples_per_op", "count");
    ("tag.self_ms_per_op", "ms");
    ("tag.minor_kw_per_op", "kwords");
    ("out.bytes_per_op", "B");
    ("gc.minor_words_per_op", "words");
    ("gc.major_collections_per_op", "count");
    ("gc.alloc_words_per_byte", "words/B");
    ("cache.statement.hit_ratio", "ratio");
    ("cache.plan.hit_ratio", "ratio");
    ("cache.result.hit_ratio", "ratio");
    ("cache.result.evictions_per_kop", "count");
    ("cache.result.weight_mb", "MB");
    ("admission.queued_frac", "ratio");
    ("admission.rejected_frac", "ratio");
    ("server.request_ms_mean", "ms");
    ("server.execute_ms_per_miss", "ms");
    ("server.tag_ms_per_miss", "ms");
    ("server.outside_ms_mean", "ms");
    ("obs.trace_overhead", "ratio");
    ("obs.unnamed_self_frac", "ratio");
  ]

(* --- result line -------------------------------------------------------- *)

type metric = { name : string; unit : string; value : float; samples : int }

(* Every digit the float carries; JSON has no encoding for nan/inf. *)
let number x =
  if not (Float.is_finite x) then
    invalid_arg (Printf.sprintf "Harness.number: non-finite value %g" x);
  Printf.sprintf "%.17g" x

let result_line ~correct ~attempted ~failed metrics =
  Printf.sprintf
    {|{"correct": %b, "attempted": %d, "failed": %d, "metrics": {%s}}|}
    correct attempted failed
    (String.concat ", "
       (List.map
          (fun m ->
            Printf.sprintf {|"%s": {"value": %s, "unit": "%s"}|} m.name
              (number m.value) m.unit)
          metrics))
