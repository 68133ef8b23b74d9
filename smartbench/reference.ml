(* The host-speed reference.

   The benchmark shares a few cores of a host with other tenants, and
   the same request can take a third longer from one minute to the next
   while the program does exactly the same work.  To take that drift
   out of the end-to-end figures, a sampler process runs a fixed
   computation every [period_s] while a pass is timed, and the pass's
   times are scaled by [nominal_ms] over the computation's mean duration.

   The computation is the benchmark's own and never changes with the
   program: dense float arithmetic (a Cholesky factorisation, as in the
   GP solver's Newton steps) and scattered memory updates (as in the
   analyses' hash tables).  It runs in its own process so that it shares
   no heap and no garbage-collector pauses with the daemon, and it
   sleeps between repetitions, so it takes about 4% of one core. *)

let size = 40

(* A fixed symmetric positive definite matrix and the factor's storage,
   row-major in flat float arrays, and a 256 KB table of counters: small
   enough to stay cached between repetitions. *)
let spd =
  Array.init (size * size) (fun x ->
      let i = x / size and j = x mod size in
      if i = j then float_of_int size else 1. /. float_of_int (1 + i + j))

let chol = Array.make (size * size) 0.
let counters = Array.make (1 lsl 15) 0

let cholesky () =
  for i = 0 to size - 1 do
    for j = 0 to i do
      let s = ref spd.((i * size) + j) in
      for k = 0 to j - 1 do
        s := !s -. (chol.((i * size) + k) *. chol.((j * size) + k))
      done;
      chol.((i * size) + j) <-
        (if i = j then sqrt !s else !s /. chol.((j * size) + j))
    done
  done

(* Scattered read-modify-writes over the table, as a hash table's probes
   are. *)
let scatter () =
  let x = ref 12345 in
  for _ = 1 to 150_000 do
    x := ((!x * 1103515245) + 12345) land 0x3FFFFFFF;
    let j = !x land (Array.length counters - 1) in
    counters.(j) <- counters.(j) + 1
  done

(* One repetition: about 0.8 ms on a 2-vCPU x86-64 VM. *)
let rep () =
  for _ = 1 to 8 do
    cholesky ()
  done;
  scatter ()

(* The mean repetition time the figures are scaled to: a typical
   reading on a 2-vCPU x86-64 VM while the benchmark runs, so scaled
   times read close to raw ones there. *)
let nominal_ms = 0.8

let period_s = 0.02
let flag = "--reference-sampler"

(* The sampler process: repetitions every [period_s] until its standard
   input closes, then the total time and count on its standard output. *)
let sampler_main () =
  let total = ref 0. and n = ref 0 in
  let rec loop () =
    let t0 = Unix.gettimeofday () in
    rep ();
    total := !total +. (Unix.gettimeofday () -. t0);
    incr n;
    match Unix.select [ Unix.stdin ] [] [] period_s with
    | [], _, _ -> loop ()
    | _ -> Printf.printf "%.9f %d\n%!" !total !n
  in
  loop ();
  exit 0

(* [timed f] runs [f] with the sampler going; returns its result and the
   mean repetition time in ms ([nominal_ms] if the sampler reported
   nothing).  The sampler is stopped and waited for on every path. *)
let timed f =
  let stop_r, stop_w = Unix.pipe ~cloexec:true () in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process Sys.executable_name
      [| Sys.executable_name; flag |]
      stop_r out_w Unix.stderr
  in
  Unix.close stop_r;
  Unix.close out_w;
  let finish () =
    Unix.close stop_w;
    let ic = Unix.in_channel_of_descr out_r in
    let mean =
      match Scanf.sscanf (input_line ic) "%f %d" (fun s n -> (s, n)) with
      | s, n when n > 0 -> 1e3 *. s /. float_of_int n
      | _ | (exception _) -> nominal_ms
    in
    close_in ic;
    ignore (Unix.waitpid [] pid);
    mean
  in
  match f () with
  | r -> (r, finish ())
  | exception e ->
    ignore (finish ());
    raise e

(* Scale factor of a pass whose mean repetition took [mean_ms]: multiply
   its times by it, divide its rates by it. *)
let factor mean_ms = nominal_ms /. mean_ms
