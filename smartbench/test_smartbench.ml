(* The benchmark's own test.

   1. The generator is deterministic: one seed gives byte-identical
      request lines, another seed gives different ones.
   2. Every generated line decodes and elaborates, except the lines that
      are malformed on purpose, which must fail with [bad-request].
   3. Every expected outcome matches: one cold-mix cycle, the error slots
      of the next, and the first mixed-concurrent block, served by a
      daemon and judged by the benchmark's own checker.
   4. A corrupted advice is caught and counted in [failed_frac]. *)

module Smart = Smart_core.Smart
module Server = Smart_serve.Server
module Wire = Smart_serve.Wire
module Jsonx = Smart_serve.Jsonx
open Smartbench

let failures = ref 0

let check name ok =
  Printf.printf "%s %s\n%!" (if ok then "ok  " else "FAIL") name;
  if not ok then incr failures

let lines g n = List.init n (fun i -> (Gen.request g i).Gen.line)

(* The datapath probe alone takes seconds; its generator is exercised
   over a stand-in floor table (generation is a pure function of it). *)
let mins_for w =
  if w = Gen.Datapath_hier then begin
    let t = Hashtbl.create 1 in
    Hashtbl.replace t
      (Gen.instance_name Gen.datapath, Smart.Tech.default.Smart.Tech.name)
      { Gen.fastest = 1500.; slowest = 1500. };
    t
  end
  else Gen.probe w

let serve server (r : Gen.request) =
  let submit = Unix.gettimeofday () in
  let response = Server.handle_line server r.Gen.line in
  {
    Drive.req = r;
    submit;
    reply_at = Unix.gettimeofday ();
    domain = 0;
    response;
    queued = -1;
    delta = None;
  }

(* Halve every advised width of the winner: the golden re-timing must
   notice. *)
let update key f = function
  | Jsonx.Obj kv -> Jsonx.Obj (List.map (fun (k, v) -> (k, if k = key then f v else v)) kv)
  | j -> j

let corrupt response =
  let halve = function Jsonx.Num x -> Jsonx.Num (0.5 *. x) | j -> j in
  let first f = function Jsonx.Arr (c :: rest) -> Jsonx.Arr (f c :: rest) | j -> j in
  let each f = function
    | Jsonx.Obj kv -> Jsonx.Obj (List.map (fun (k, v) -> (k, f v)) kv)
    | j -> j
  in
  match Jsonx.parse response with
  | Ok j ->
    Jsonx.to_string
      (update "advice" (update "ranked" (first (update "sizing" (each halve)))) j)
  | Error e -> failwith e

let () =
  let db = Smart.Database.builtins () in
  let gens =
    List.map
      (fun (name, w) ->
        let mins = mins_for w in
        (name, w, Gen.create ~seed:7 ~mins w, Gen.create ~seed:8 ~mins w))
      Gen.names
  in
  List.iter
    (fun (name, w, g7, g8) ->
      let n = 3 * max (Gen.quality_prefix w) 17 in
      let again = Gen.create ~seed:7 ~mins:(mins_for w) w in
      check (name ^ ": same seed, same lines") (lines g7 n = lines again n);
      check (name ^ ": another seed, other lines") (lines g7 n <> lines g8 n);
      let decoded =
        List.for_all
          (fun i ->
            let r = Gen.request g7 i in
            match
              ( Result.bind (Wire.Request.of_line r.Gen.line) Wire.Request.elaborate,
                r.Gen.expect )
            with
            | Ok _, _ -> r.Gen.expect <> Gen.Fails "bad-request"
            | Error e, Gen.Fails "bad-request" -> Smart.Error.code e = "bad-request"
            | Error _, _ -> false)
          (List.init n Fun.id)
      in
      check (name ^ ": every line decodes and elaborates as expected") decoded)
    gens;
  let gen_of w =
    let _, _, g, _ = List.find (fun (_, w', _, _) -> w' = w) gens in
    g
  in
  (* Expected outcomes. *)
  let server = Server.create ~workers:1 () in
  let cold = gen_of Gen.Cold_mix in
  let cycle = Gen.cold_cycle_length in
  let cold_reqs =
    List.init cycle (Gen.request cold)
    @ List.filter
        (fun r -> r.Gen.expect <> Gen.Advice)
        (List.init cycle (fun i -> Gen.request cold (cycle + i)))
  in
  let mixed = gen_of Gen.Mixed_concurrent in
  let mixed_reqs = List.init Gen.mixed_block (Gen.request mixed) in
  let samples = List.map (serve server) (cold_reqs @ mixed_reqs) in
  Server.shutdown server;
  let verdicts = Bench.judge ~db ~refs:(Hashtbl.create 16) samples in
  List.iter
    (fun ((s : Drive.sample), v) ->
      match v with
      | Bench.Right -> ()
      | Bench.Wrong m -> Printf.printf "  #%d %s: %s\n" s.Drive.req.Gen.index s.Drive.req.Gen.label m
      | _ -> Printf.printf "  #%d refused or crashed\n" s.Drive.req.Gen.index)
    verdicts;
  check "every expected outcome matches" (Bench.failed_frac verdicts = 0.);
  let codes =
    List.sort_uniq compare
      (List.filter_map
         (fun (r : Gen.request) ->
           match r.Gen.expect with Gen.Fails c -> Some c | Gen.Advice -> None)
         cold_reqs)
  in
  check "cold-mix covers every expected error code"
    (codes = [ "bad-request"; "infeasible-spec"; "no-applicable-topology" ]);
  (* A corrupted advice. *)
  let advised =
    List.find
      (fun (s : Drive.sample) -> Verify.advice_bytes s.Drive.response <> None)
      samples
  in
  let bad = { advised with Drive.response = corrupt advised.Drive.response } in
  let verdicts = Bench.judge ~db ~refs:(Hashtbl.create 16) [ advised; bad ] in
  check "a corrupted advice is judged wrong"
    (List.map snd verdicts |> function
     | [ Bench.Right; Bench.Wrong _ ] -> true
     | _ -> false);
  check "and counted in failed_frac" (Bench.failed_frac verdicts = 0.5);
  Drive.remove_scratch ();
  if !failures > 0 then exit 1
