(* Host-speed calibration.

   The VM this benchmark runs on shares its physical cores, caches and
   memory bandwidth with other tenants, and its speed drifts by 10-40%
   over seconds to minutes: CPU time swings as much as wall time, so it
   is not stolen time but slower instructions.  A reference kernel that
   uses none of the program's code is timed between ops; every timing the
   benchmark reports is scaled by [reference_ms] over the kernel's time
   around it, so it reads as the time the op would take on a host where
   the kernel takes [reference_ms].  A change to the program moves the
   op's time and not the kernel's, so it shows in full.

   The kernel does the kinds of work the program's time goes to: a sort
   of ints (compares and branches, as in the executor's sorts),
   short-lived small allocations (minor GC, as everywhere) and markup
   written into a buffer (as in the tagger).  It is compute-bound on
   purpose: a memory-latency part (a random walk through 4 MB) barely
   moved when the host sped up by a third and the program with it, so it
   made the kernel under-correct.  Its arrays are small or hold no
   pointers, and its allocations die young, so it adds no work to the
   program's major GC. *)

let now = Unix.gettimeofday

(* About the kernel's time on the 2-vCPU VM the benchmark was tuned on
   in its faster periods (it read 18-25 ms there); only the unit of the
   scaled timings depends on it. *)
let reference_ms = 19.0

(* A kernel run follows an op once this much wall time has passed since
   the last one; several samples around an op set its scale. *)
let every_s = 0.1

let sort_size = 24_000
let alloc_rounds = 50
let markup_passes = 2

let keys =
  let st = Random.State.make [| 9 |] in
  Array.init sort_size (fun _ -> Random.State.bits st)

let scratch = Array.make sort_size 0
let markup = Buffer.create (1 lsl 20)

let kernel () =
  Array.blit keys 0 scratch 0 sort_size;
  Array.sort Int.compare scratch;
  let acc = ref scratch.(0) in
  for r = 1 to alloc_rounds do
    let l = List.init 1000 (fun i -> (i, string_of_int (i + r))) in
    acc := List.fold_left (fun a (i, s) -> a + i + String.length s) !acc l
  done;
  for _ = 1 to markup_passes do
    Buffer.clear markup;
    Array.iter
      (fun k ->
        Buffer.add_string markup "<row key=\"";
        Buffer.add_string markup (string_of_int (k land 0xffff));
        Buffer.add_string markup "\"/>")
      keys
  done;
  ignore (Sys.opaque_identity (!acc + Buffer.length markup))

(* Time-stamped kernel timings of one phase. *)
type t = { mutable samples : (float * float) list; mutable last : float }

let create () = { samples = []; last = neg_infinity }

let sample c =
  let t0 = now () in
  kernel ();
  let t1 = now () in
  c.samples <- ((t0 +. t1) /. 2.0, (t1 -. t0) *. 1000.0) :: c.samples;
  c.last <- t1

(* Samples the kernel when [every_s] has passed since the last sample. *)
let tick c = if now () -. c.last >= every_s then sample c

(* [ms] of ops timed at [times], scaled to the reference host. *)
let scale c ~times ms =
  Harness.scale_to_reference ~reference_ms ~samples:c.samples ~times ms
