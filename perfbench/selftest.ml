(* Self-tests of the benchmark's arithmetic: nearest-rank percentiles,
   the ten-beyond rule, exposition scrape diffs, host-speed scaling,
   the seeded Zipf draws,
   output checking with a corrupted reference, the result line, and
   that the metric names agree with BENCHMARK.json. *)

let check name ok =
  if not ok then begin
    Printf.printf "FAIL %s\n" name;
    exit 1
  end
  else Printf.printf "ok   %s\n" name

let range n = Array.init n (fun i -> float_of_int (i + 1))

let () =
  let p = Harness.percentile in
  check "p50 of 1..10 is 5" (p (range 10) 0.5 = 5.0);
  check "p90 of 1..10 is 9" (p (range 10) 0.9 = 9.0);
  check "p90 of 1..100 is 90" (p (range 100) 0.9 = 90.0);
  check "p99 of 1..1000 is 990" (p (range 1000) 0.99 = 990.0);
  check "p100 is the maximum" (p (range 7) 1.0 = 7.0);
  check "p0 is the minimum" (p (range 7) 0.0 = 1.0);
  check "one sample is every percentile"
    (p [| 11.09 |] 0.5 = 11.09 && p [| 11.09 |] 0.99 = 11.09);
  check "median of an unsorted list" (Harness.median [ 3.0; 1.0; 2.0 ] = 2.0)

let () =
  let r = Harness.reportable in
  check "p90 reported at 100 samples" (r ~n:100 0.9);
  check "p90 withheld at 99 samples" (not (r ~n:99 0.9));
  check "p99 reported at 1000 samples" (r ~n:1000 0.99);
  check "p99 withheld at 999 samples" (not (r ~n:999 0.99));
  check "nothing reported without samples" (not (r ~n:0 0.5));
  check "ten beyond p90 at 100" (Harness.beyond ~n:100 0.9 = 10)

let () =
  let s = Obs.Expose.sample in
  let hits v =
    s ~labels:[ ("tier", "result") ] Obs.Expose.Counter
      "silkroute_cache_hits_total" v
  in
  let before =
    Obs.Expose.render
      [
        hits 10.0;
        s Obs.Expose.Summary "silkroute_server_request_ms_sum" 5.5;
        s Obs.Expose.Gauge "silkroute_uptime_seconds" 3.0;
      ]
  in
  let after =
    Obs.Expose.render
      [
        hits 25.0;
        s Obs.Expose.Summary "silkroute_server_request_ms_sum" 9.0;
        s Obs.Expose.Gauge "silkroute_uptime_seconds" 4.5;
        s Obs.Expose.Counter "silkroute_server_rejected_total" 2.0;
      ]
  in
  let d = Harness.series (Harness.scrape_diff ~before ~after) in
  check "scrape diff of a labelled counter"
    (d "silkroute_cache_hits_total{tier=\"result\"}" = 15.0);
  check "scrape diff of a summary sum"
    (d "silkroute_server_request_ms_sum" = 3.5);
  check "scrape diff of a gauge" (d "silkroute_uptime_seconds" = 1.5);
  check "a new series counts from zero"
    (d "silkroute_server_rejected_total" = 2.0);
  check "an absent series reads 0" (d "silkroute_nope" = 0.0)

let () =
  let scale samples times ms =
    Harness.scale_to_reference ~reference_ms:10.0 ~samples ~times ms
  in
  let steady = List.init 8 (fun i -> (float_of_int i, 10.0)) in
  check "a kernel at reference speed leaves times alone"
    (scale steady [ 0.5; 7.0 ] [ 3.0; 4.0 ] = [ 3.0; 4.0 ]);
  let slow = List.init 8 (fun i -> (float_of_int i, 20.0)) in
  check "a kernel twice as slow halves times"
    (scale slow [ 2.5 ] [ 30.0 ] = [ 15.0 ]);
  (* samples 0..9 s: 10 ms for the first half, 40 ms for the second;
     an op's scale is the median of the five samples nearest to it *)
  let split =
    List.init 10 (fun i -> (float_of_int i, if i < 5 then 10.0 else 40.0))
  in
  check "early ops scale by the early samples"
    (scale split [ 0.0; 2.1 ] [ 8.0; 8.0 ] = [ 8.0; 8.0 ]);
  check "late ops scale by the late samples"
    (scale split [ 9.0; 7.2 ] [ 8.0; 8.0 ] = [ 2.0; 2.0 ]);
  check "the median outvotes one outlier"
    (scale
       ((3.0, 1000.0) :: List.init 8 (fun i -> (float_of_int i, 10.0)))
       [ 3.0 ] [ 5.0 ]
    = [ 5.0 ]);
  check "fewer samples than the window use them all"
    (scale [ (0.0, 5.0); (1.0, 20.0) ] [ 0.5 ] [ 4.0 ] = [ 8.0 ])

let cdf = Harness.zipf ~n:2074 ~s:1.0

let draws seed n =
  let rng = Tpch.Rng.split (Tpch.Rng.create (Int64.of_int seed)) "serve" in
  let d = Harness.draws ~cdf ~block:100 rng in
  List.init n (fun _ -> Harness.draw d)

let () =
  check "zipf draws repeat for a fixed seed" (draws 7 500 = draws 7 500);
  check "zipf draws differ across seeds" (draws 7 500 <> draws 8 500);
  let small = Harness.zipf ~n:100 ~s:1.2 in
  check "zipf cdf ends at 1" (Float.abs (small.(99) -. 1.0) < 1e-12);
  check "zipf cdf is increasing"
    (Array.for_all Fun.id (Array.init 99 (fun i -> small.(i) < small.(i + 1))));
  check "zipf rank 0 below its weight" (Harness.zipf_rank small 0.0 = 0);
  check "zipf rank at a boundary" (Harness.zipf_rank small small.(0) = 1);
  check "zipf rank near 1 is the last"
    (Harness.zipf_rank small 0.9999999999999 = 99);
  let ds = draws 3 20_000 in
  let count r = List.length (List.filter (( = ) r) ds) in
  check "zipf rank 0 is the most popular"
    (count 0 > count 1 && count 1 > count 10);
  (* the first 100 draws are one block: its share of ranks up to [head]
     is the law's, within the one slice that straddles the boundary *)
  let head = Harness.zipf_rank cdf 0.5 in
  let in_head seed =
    List.length (List.filter (fun r -> r <= head) (draws seed 100))
  in
  check "every block holds the head in its exact share"
    (List.for_all
       (fun seed ->
         Float.abs (float_of_int (in_head seed) -. (100.0 *. cdf.(head)))
         <= 1.0)
       [ 1; 2; 3; 4; 5 ]);
  let rng () = Tpch.Rng.create 5L in
  let a = Array.init 50 Fun.id in
  let s1 = Harness.shuffle (rng ()) a and s2 = Harness.shuffle (rng ()) a in
  check "shuffle repeats for a fixed seed" (s1 = s2);
  check "shuffle is a permutation"
    (List.sort compare (Array.to_list s1) = Array.to_list a)

let () =
  let o = Harness.outputs () in
  for _ = 1 to 5 do
    Harness.add_output o "q1" "<a/>"
  done;
  Harness.add_output o "q1" "<b/>";
  Harness.add_output o "q2" "<c/>";
  let oracle = function "q1" -> "<a/>" | _ -> "<c/>" in
  let failures expected o = Harness.mismatches o ~expected in
  check "a wrong variant counts as one failure" (failures oracle o = 1);
  let corrupted v =
    let r = Bytes.of_string (oracle v) in
    Bytes.set r 1 'x';
    Bytes.to_string r
  in
  check "a corrupted reference fails every op" (failures corrupted o = 7);
  let many = Harness.outputs () in
  for i = 0 to Harness.max_variants + 2 do
    Harness.add_output many "q1" (string_of_int i)
  done;
  check "variants beyond the cap fail outright"
    (failures (fun _ -> "0") many = Harness.max_variants + 2)

let () =
  let m =
    { Harness.name = "op_ms_p50"; unit = "ms"; value = 0.1 +. 0.2; samples = 3 }
  in
  let line = Harness.result_line ~correct:true ~attempted:3 ~failed:0 [ m ] in
  let j = Obs.Json.parse line in
  let keys = match j with Obs.Json.Obj kv -> List.map fst kv | _ -> [] in
  check "result line has exactly the four keys"
    (keys = [ "correct"; "attempted"; "failed"; "metrics" ]);
  let value =
    Option.bind (Obs.Json.member "metrics" j) (Obs.Json.member "op_ms_p50")
    |> Fun.flip Option.bind (Obs.Json.member "value")
  in
  check "result values keep every digit"
    (value = Some (Obs.Json.Float (0.1 +. 0.2)))

(* The names and units the bench prints are the ones BENCHMARK.json
   declares. *)
let () =
  let text =
    In_channel.with_open_bin "../BENCHMARK.json" In_channel.input_all
  in
  let j = Obs.Json.parse text in
  let declared key =
    match Obs.Json.member key j with
    | Some (Obs.Json.List items) ->
        List.map
          (fun m ->
            match (Obs.Json.member "name" m, Obs.Json.member "unit" m) with
            | Some (Obs.Json.String n), Some (Obs.Json.String u) -> (n, u)
            | _ -> ("", ""))
          items
    | _ -> []
  in
  check "end-to-end metrics match BENCHMARK.json"
    (declared "end_to_end" = Harness.end_to_end);
  check "per-layer metrics match BENCHMARK.json"
    (declared "per_layer" = Harness.per_layer)
