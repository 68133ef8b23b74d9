(* The SMART benchmark command.

     main.exe --workload NAME --seed N --seconds S --trace 0|1
     main.exe --workload NAME --seed N --check-counts N

   A traced run also writes its span tree, one JSON line per span
   (request, id, parent, name, label, start, duration, self time), to
   .smartbench-spans/<workload>-<seed>.jsonl at exit.
   Prints one line per metric (name, value, unit, sample count), then as
   its last line one JSON object {correct, attempted, failed, metrics}.
   Exits 1 when any answer was wrong, 2 on a usage error. *)

module Jsonx = Smart_serve.Jsonx

let usage () =
  prerr_endline
    "usage: main.exe --workload (cold-mix|warm-repeat|mixed-concurrent|datapath-hier) \
     --seed N (--seconds S --trace 0|1 | --check-counts N)";
  exit 2

let () =
  if Array.length Sys.argv = 2 && Sys.argv.(1) = Smartbench.Reference.flag then
    Smartbench.Reference.sampler_main ();
  let args = Array.to_list Sys.argv |> List.tl in
  let rec parse acc = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
      parse ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let opts = parse [] args in
  let get k = List.assoc_opt k opts in
  let int k = Option.bind (get k) int_of_string_opt in
  let workload =
    match Option.bind (get "workload") Smartbench.Gen.name_of_string with
    | Some w -> w
    | None -> usage ()
  in
  let seed = match int "seed" with Some s -> s | None -> usage () in
  let db = Smart_core.Smart.Database.builtins () in
  let finish (r : Smartbench.Bench.result) =
    Smartbench.Drive.remove_scratch ();
    List.iter (fun f -> prerr_endline ("wrong answer: " ^ f)) r.Smartbench.Bench.failures;
    List.iter
      (fun (m : Smartbench.Bench.metric) ->
        Printf.printf "%-32s %14.4f %-8s n=%d\n" m.Smartbench.Bench.name
          m.Smartbench.Bench.value m.Smartbench.Bench.unit m.Smartbench.Bench.n)
      r.Smartbench.Bench.metrics;
    let metric (m : Smartbench.Bench.metric) =
      ( m.Smartbench.Bench.name,
        Jsonx.Obj
          [
            ("value", Jsonx.Num m.Smartbench.Bench.value);
            ("unit", Jsonx.Str m.Smartbench.Bench.unit);
          ] )
    in
    print_endline
      (Jsonx.to_string
         (Jsonx.Obj
            [
              ("correct", Jsonx.Bool (r.Smartbench.Bench.failed = 0));
              ("attempted", Jsonx.Num (float_of_int r.Smartbench.Bench.attempted));
              ("failed", Jsonx.Num (float_of_int r.Smartbench.Bench.failed));
              ("metrics", Jsonx.Obj (List.map metric r.Smartbench.Bench.metrics));
            ]));
    exit (if r.Smartbench.Bench.failed = 0 then 0 else 1)
  in
  match int "check-counts" with
  | Some n ->
    let run () = Smartbench.Bench.counts ~db ~seed ~n workload in
    let a = run () in
    let b = run () in
    Smartbench.Drive.remove_scratch ();
    let differ =
      List.filter_map
        (fun (k, v) ->
          match List.assoc_opt k b with
          | Some w when w = v -> None
          | w -> Some (k, v, w))
        a
    in
    let single = Smartbench.Gen.clients workload = 1 in
    List.iter
      (fun (k, v, w) ->
        Printf.printf "non-deterministic %-28s %g vs %s\n" k v
          (match w with Some w -> Printf.sprintf "%g" w | None -> "absent"))
      differ;
    Printf.printf "%d counts compared over %d requests: %d repeat, %d do not%s\n"
      (List.length a) n
      (List.length a - List.length differ)
      (List.length differ)
      (if single || differ = [] then "" else " (concurrent workload: reported, not gated)");
    exit (if single && differ <> [] then 1 else 0)
  | None ->
    let seconds =
      match Option.bind (get "seconds") float_of_string_opt with
      | Some s when s > 0. -> s
      | _ -> usage ()
    in
    let r =
      match get "trace" with
      | Some "1" ->
        let dir = ".smartbench-spans" in
        if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
        let spans_out =
          Filename.concat dir
            (Printf.sprintf "%s-%d.jsonl" (Smartbench.Gen.name_to_string workload) seed)
        in
        Smartbench.Bench.traced_run ~spans_out ~db ~seed ~seconds workload
      | Some "0" | None -> Smartbench.Bench.end_to_end ~db ~seed ~seconds workload
      | Some _ -> usage ()
    in
    finish r
