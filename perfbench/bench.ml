(* Wall-clock benchmark of the SilkRoute middleware.

     bench.exe --workload NAME --seed N --seconds S --trace 0|1
               [--corrupt-reference]

   Runs one workload (export-q1, plan-sweep or serve-zipf; see
   perfbench/README.md), checks every output byte for byte against the
   naive-datalog oracle, prints each metric with its unit and sample
   count, and ends with one JSON line: the end-to-end metrics with
   --trace 0, the per-layer metrics with --trace 1.  Exits 1 when an op
   failed, was rejected or mismatched, or the server did not stop
   cleanly; 2 on a harness error, without a result line.
   --corrupt-reference is the negative control: every reference is
   corrupted, so every op must be reported failed. *)

open Common

let workloads =
  [
    ("export-q1", Inproc.export_q1);
    ("plan-sweep", Inproc.plan_sweep);
    ("serve-zipf", Serve.run);
  ]

let () =
  let workload = ref "" and seed = ref 42 and seconds = ref 10 in
  let trace = ref 0 and corrupt = ref false in
  Arg.parse
    [
      ( "--workload",
        Arg.Set_string workload,
        "NAME export-q1 | plan-sweep | serve-zipf" );
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_int seconds, "S length of one timed phase");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) run");
      ("--corrupt-reference", Arg.Set corrupt, " negative control");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload NAME --seed N --seconds S --trace 0|1";
  let run =
    match List.assoc_opt !workload workloads with
    | Some run -> run
    | None ->
        prerr_endline ("unknown workload: " ^ !workload);
        exit 2
  in
  if !seconds < 1 || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline "--seconds must be >= 1 and --trace 0 or 1";
    exit 2
  end;
  List.iter
    (fun sg -> Sys.set_signal sg (Sys.Signal_handle (fun _ -> exit 2)))
    [ Sys.sigint; Sys.sigterm ];
  let ctx =
    {
      workload = !workload;
      seed = !seed;
      seconds = float_of_int !seconds;
      traced = !trace = 1;
      corrupt = !corrupt;
    }
  in
  match run ctx with
  | exception e ->
      Printf.eprintf "bench: %s: %s\n%!" ctx.workload (Printexc.to_string e);
      exit 2
  | r ->
      let fail_frac =
        float_of_int r.failed /. float_of_int (max 1 r.attempted)
      in
      List.iter
        (fun (m : Harness.metric) ->
          Printf.printf "%-32s %16.6f %-8s n=%d\n" m.name m.value m.unit
            m.samples)
        (r.metrics @ r.extra
        @ [ metric "fail_frac" "ratio" fail_frac r.attempted ]);
      if not r.clean then print_endline "server did not stop cleanly";
      let correct = r.failed = 0 && r.clean in
      print_endline
        (Harness.result_line ~correct ~attempted:r.attempted ~failed:r.failed
           r.metrics);
      exit (if correct then 0 else 1)
