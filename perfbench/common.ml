(* What every workload shares: the run context, clocks, set-up
   repetition, process memory, the output tally and the naive-datalog
   oracle every output is checked against. *)

module S = Silkroute

type ctx = {
  workload : string;
  seed : int;  (** workload seed: TPC-H data, sweep order, serve draws *)
  seconds : float;  (** length of one timed phase *)
  traced : bool;  (** per-layer run instead of end-to-end *)
  corrupt : bool;  (** negative control: corrupt every reference *)
}

(* Everything a run leaves behind (oracle cache, traces, server socket,
   temporary files) lives here, relative to the checkout root. *)
let state_dir = ".perfbench"

let state_path name =
  if not (Sys.file_exists state_dir) then Sys.mkdir state_dir 0o755;
  Filename.concat state_dir name

let now () = Unix.gettimeofday ()
let ms_since t0 = (now () -. t0) *. 1000.0

(* A timed phase lasts [ctx.seconds] and at least [min_ops] ops, so that
   p90 always has ten samples beyond it. *)
let min_ops = 100

(* Set-up is repeated and its median reported, so that one slow
   repetition does not move [setup_s]. *)
let setup_reps = 21

let metric name unit value samples = { Harness.name; unit; value; samples }

(* VmHWM of a process (default: this one), in MB. *)
let peak_rss_mb ?pid () =
  let path =
    match pid with
    | None -> "/proc/self/status"
    | Some p -> Printf.sprintf "/proc/%d/status" p
  in
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let rec scan () =
        match input_line ic with
        | line when String.starts_with ~prefix:"VmHWM:" line ->
            Scanf.sscanf line "VmHWM: %d kB" (fun kb ->
                float_of_int kb /. 1024.0)
        | _ -> scan ()
        | exception End_of_file -> failwith ("no VmHWM in " ^ path)
      in
      scan ())

let generate ~sf ~seed =
  Tpch.Gen.generate (Tpch.Gen.config ~seed:(Int64.of_int seed) sf)

(* Runs [f] [setup_reps] times, with the calibration kernel before each
   repetition and after the last; returns the last value and the median
   time of one repetition in ms, scaled to the reference host.  The heap
   is compacted once afterwards, so the repetitions' garbage does not
   reach the timed phase. *)
let repeat_setup f =
  let cal = Calib.create () in
  let ms = ref [] and times = ref [] and last = ref None in
  for _ = 1 to setup_reps do
    (* drop the previous repetition's value first: one set-up is live at
       a time, as in a single set-up *)
    last := None;
    Calib.sample cal;
    let t0 = now () in
    let v = f () in
    let t1 = now () in
    ms := (t1 -. t0) *. 1000.0 :: !ms;
    times := ((t0 +. t1) /. 2.0) :: !times;
    last := Some v
  done;
  Calib.sample cal;
  Gc.compact ();
  (Option.get !last, Harness.median (Calib.scale cal ~times:!times !ms))

(* The timing metrics of a timed phase from its per-op wall times [ms]
   and the same scaled to the reference host: the scaled ones are the
   declared metrics, the measured ones and the kernel's median time are
   printed beside them.  [ops_per_s] is ops over the summed op times. *)
let timings ~ms ~scaled ~kernel_ms =
  let n = List.length ms in
  let rate xs = 1000.0 *. float_of_int n /. List.fold_left ( +. ) 0.0 xs in
  let pct xs = Harness.percentile (Harness.sorted_of_list xs) in
  let sc = pct scaled and raw = pct ms in
  ( [
      metric "ops_per_s" "ops/s" (rate scaled) n;
      metric "op_ms_p50" "ms" (sc 0.5) n;
      metric "op_ms_p90" "ms" (sc 0.9) n;
    ],
    (if Harness.reportable ~n 0.99 then [ metric "op_ms_p99" "ms" (sc 0.99) n ]
     else [])
    @ [
        metric "wall.ops_per_s" "ops/s" (rate ms) n;
        metric "wall.op_ms_p50" "ms" (raw 0.5) n;
        metric "wall.op_ms_p90" "ms" (raw 0.9) n;
        metric "host.kernel_ms" "ms" (Harness.median kernel_ms)
          (List.length kernel_ms);
      ] )

(* Median of three bench-timed [Relational.Stats.analyze db] calls, in
   ms. *)
let analyze_ms db =
  Harness.median
    (List.init 3 (fun _ ->
         let t0 = now () in
         ignore (Relational.Stats.analyze db);
         ms_since t0))

let views =
  [
    ("q1", S.Queries.query1_text);
    ("q2", S.Queries.query2_text);
    ("fragment", S.Queries.fragment_text);
  ]

(* --- outputs and the oracle --------------------------------------------- *)

let exe_digest = lazy (Digest.to_hex (Digest.file Sys.executable_name))

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* The reference document of one view: Xmlkit.Serialize of the naive
   datalog materialization, never the optimized path being timed.  It is
   cached under the state directory, keyed by this executable's digest,
   the view, the scale and the seed, because at sf=8 the naive
   evaluation takes tens of seconds.  The negative control flips one
   byte of it. *)
let reference ctx ~sf db view =
  let text = List.assoc view views in
  let key =
    Digest.to_hex
      (Digest.string
         (String.concat "|"
            [
              Lazy.force exe_digest;
              view;
              string_of_float sf;
              string_of_int ctx.seed;
            ]))
  in
  let path = state_path ("oracle-" ^ key ^ ".xml") in
  let xml =
    if Sys.file_exists path then read_file path
    else begin
      let p = S.Middleware.prepare_text db text in
      let xml = Xmlkit.Serialize.to_string (S.Middleware.materialize_naive p) in
      let tmp = path ^ ".tmp" in
      Out_channel.with_open_bin tmp (fun oc -> output_string oc xml);
      Sys.rename tmp path;
      xml
    end
  in
  if ctx.corrupt && xml <> "" then begin
    let b = Bytes.of_string xml in
    let i = Bytes.length b / 2 in
    Bytes.set b i (if Bytes.get b i = 'x' then 'y' else 'x');
    Bytes.to_string b
  end
  else xml

let mismatches ctx ~sf db o =
  Harness.mismatches o ~expected:(reference ctx ~sf db)

(* --- a workload's result ------------------------------------------------- *)

type result = {
  attempted : int;
  failed : int;  (** failed + rejected + byte-mismatched ops *)
  clean : bool;  (** harness hygiene held (server exit, socket removed) *)
  metrics : Harness.metric list;  (** exactly the BENCHMARK.json metrics *)
  extra : Harness.metric list;
      (** printed only: not defined on every workload *)
}
