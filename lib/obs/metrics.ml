(* The metrics registry: named counters, gauges, and histograms.

   Metrics are looked up by name at the instrumentation site
   (get-or-create), which keeps call sites one-liners; all writes are
   gated on Control, so with observability off a metric call is a single
   boolean test.  Histograms are fixed-bucket: [bounds] are inclusive
   upper edges and the last bucket is the overflow bucket, so
   [counts] has [Array.length bounds + 1] cells.

   Domain safety: one mutex guards the registry and every metric cell.
   A finer scheme (lock-free counters, per-domain shards) is not worth
   it here — with observability off there is no lock at all, and with it
   on the workloads are dominated by executor work, not metric traffic. *)

type histogram = {
  bounds : float array; (* strictly increasing inclusive upper edges *)
  counts : int array; (* length = Array.length bounds + 1 (overflow last) *)
  mutable sum : float;
  mutable n : int;
  mutable min : float; (* exact extremes; infinity/neg_infinity when empty *)
  mutable max : float;
}

type metric = Counter of int ref | Gauge of float ref | Histogram of histogram

let registry : (string, metric) Hashtbl.t = Hashtbl.create 64
let lock = Mutex.create ()
let reset () = Mutex.protect lock (fun () -> Hashtbl.reset registry)

let exponential ~start ~factor ~count =
  Array.init count (fun i -> start *. (factor ** float_of_int i))

(* Powers of four from 1 to ~4M: wide enough for work units, rows and
   bytes alike without per-metric tuning. *)
let default_bounds = exponential ~start:1.0 ~factor:4.0 ~count:12

(* Millisecond durations: 1µs to ~1min in powers of four. *)
let duration_bounds = exponential ~start:0.001 ~factor:4.0 ~count:13

(* Index of the bucket [x] falls into: the smallest [i] with
   [x <= bounds.(i)], or [Array.length bounds] for the overflow bucket.
   Binary search — [observe] sits on the executor's per-row hot path, so
   a linear scan over 12+ bounds per observation is real money (the
   [micro:bucket-*] bench cases measure the difference). *)
let bucket_index bounds x =
  let nb = Array.length bounds in
  if nb = 0 || x > bounds.(nb - 1) then nb
  else begin
    let lo = ref 0 and hi = ref (nb - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if x <= bounds.(mid) then hi := mid else lo := mid + 1
    done;
    !lo
  end

let find_or_add name mk =
  match Hashtbl.find_opt registry name with
  | Some m -> m
  | None ->
      let m = mk () in
      Hashtbl.replace registry name m;
      m

let kind_error name want =
  invalid_arg (Printf.sprintf "Obs.Metrics: %s is not a %s" name want)

let incr ?(by = 1) name =
  if Control.is_enabled () then
    Mutex.protect lock (fun () ->
        match find_or_add name (fun () -> Counter (ref 0)) with
        | Counter r -> r := !r + by
        | _ -> kind_error name "counter")

let set_gauge name v =
  if Control.is_enabled () then
    Mutex.protect lock (fun () ->
        match find_or_add name (fun () -> Gauge (ref 0.0)) with
        | Gauge r -> r := v
        | _ -> kind_error name "gauge")

let observe ?(bounds = default_bounds) name x =
  if Control.is_enabled () then
    Mutex.protect lock (fun () ->
        match
          find_or_add name (fun () ->
              Histogram
                {
                  bounds;
                  counts = Array.make (Array.length bounds + 1) 0;
                  sum = 0.0;
                  n = 0;
                  min = infinity;
                  max = neg_infinity;
                })
        with
        | Histogram h ->
            let i = bucket_index h.bounds x in
            h.counts.(i) <- h.counts.(i) + 1;
            h.sum <- h.sum +. x;
            h.n <- h.n + 1;
            h.min <- Float.min h.min x;
            h.max <- Float.max h.max x
        | _ -> kind_error name "histogram")

(* --- read side -------------------------------------------------------- *)

type snapshot =
  | SCounter of int
  | SGauge of float
  | SHistogram of histogram

let snap = function
  | Counter r -> SCounter !r
  | Gauge r -> SGauge !r
  | Histogram h ->
      SHistogram { h with counts = Array.copy h.counts }

let snapshot () =
  Mutex.protect lock (fun () ->
      Hashtbl.fold (fun name m acc -> (name, snap m) :: acc) registry [])
  |> List.sort (fun (a, _) (b, _) -> compare a b)

(* Percentile estimation from bucket counts.  The true values are gone;
   what remains is "k observations landed in (lo, hi]".  We find the
   bucket holding the q*n-th observation and interpolate inside it —
   log-linearly when the edges are positive (our buckets are
   exponential, so equal fractions should cover equal ratios), linearly
   from zero in the first bucket.  The overflow bucket has no upper edge, so a
   percentile landing there reports the last bound: a lower bound on the
   truth, clearly conservative.  Every estimate is then clamped to the
   exact [min, max] seen, so a bucket wider than the data cannot push a
   percentile outside it (one observation reports itself at every q). *)
let percentile (h : histogram) q =
  let nb = Array.length h.bounds in
  if h.n = 0 || nb = 0 then None
  else begin
    let q = Float.max 0.0 (Float.min 1.0 q) in
    let rank = q *. float_of_int h.n in
    let clamp x =
      if h.min <= h.max then Float.min h.max (Float.max h.min x) else x
    in
    let rec go i cum =
      if i > nb then Some h.bounds.(nb - 1)
      else
        let c = h.counts.(i) in
        let cum' = cum +. float_of_int c in
        if c > 0 && cum' >= rank then
          if i >= nb then Some h.bounds.(nb - 1)
          else begin
            let hi = h.bounds.(i) in
            let lo = if i = 0 then 0.0 else h.bounds.(i - 1) in
            let frac = Float.max 0.0 ((rank -. cum) /. float_of_int c) in
            if lo > 0.0 && hi > 0.0 then Some (lo *. ((hi /. lo) ** frac))
            else Some (lo +. ((hi -. lo) *. frac))
          end
        else go (i + 1) cum'
    in
    Option.map clamp (go 0 0.0)
  end

let p50_90_99 h =
  match (percentile h 0.50, percentile h 0.90, percentile h 0.99) with
  | Some a, Some b, Some c -> Some (a, b, c)
  | _ -> None

let counter_value name =
  Mutex.protect lock (fun () ->
      match Hashtbl.find_opt registry name with
      | Some (Counter r) -> Some !r
      | _ -> None)

let histogram_snapshot name =
  Mutex.protect lock (fun () ->
      match Hashtbl.find_opt registry name with
      | Some (Histogram h) -> Some { h with counts = Array.copy h.counts }
      | _ -> None)
