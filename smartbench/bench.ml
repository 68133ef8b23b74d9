(* One benchmark run: set-up, the timed pass(es), answer checking and
   the metric report. *)

module Smart = Smart_core.Smart
module Engine = Smart.Engine
module Server = Smart_serve.Server
module Store = Smart_serve.Store
module Wire = Smart_serve.Wire
module Jsonx = Smart_serve.Jsonx
module Trace = Engine.Trace

type metric = { name : string; value : float; unit : string; n : int }
(** [n]: samples behind the figure (0 for counters). *)

type result = {
  attempted : int;
  failed : int;
  failures : string list;  (** one line per wrong answer, for stderr *)
  metrics : metric list;
}

let quantile = Layers.quantile
let median = Layers.median
let mean = function [] -> 0. | l -> List.fold_left ( +. ) 0. l /. float_of_int (List.length l)

(* ------------------------------------------------------------------ *)
(* Answer checking                                                     *)
(* ------------------------------------------------------------------ *)

type verdict = Right | Wrong of string | Refused | Crashed

let error_code response =
  match Wire.Response.of_line response with
  | Ok { Wire.Response.payload = Wire.Response.Failed e; _ } ->
    Some (Smart.Error.code e)
  | _ -> None

(* Classify every answer.  [refs] maps an index to the advice bytes of
   its first answer (primed answers included); a replay must repeat
   them byte for byte, whichever cache level served it. *)
let judge ~db ~refs (samples : Drive.sample list) =
  let checked = Hashtbl.create 64 in
  List.iter
    (fun (s : Drive.sample) ->
      if s.Drive.req.Gen.repeat_of = None && not (Hashtbl.mem refs s.Drive.req.Gen.index)
      then
        Option.iter
          (Hashtbl.replace refs s.Drive.req.Gen.index)
          (Verify.advice_bytes s.Drive.response))
    samples;
  List.map
    (fun (s : Drive.sample) ->
      let r = s.Drive.req in
      let verdict =
        match error_code s.Drive.response with
        | Some "overloaded" -> Refused
        | Some "worker-crash" -> Crashed
        | _ -> (
          match r.Gen.repeat_of with
          | Some k -> (
            match (Hashtbl.find_opt refs k, Verify.advice_bytes s.Drive.response) with
            | Some a, Some b when a = b -> Right
            | Some _, Some _ ->
              Wrong (Printf.sprintf "replay of #%d is not byte-identical" k)
            | None, _ -> Wrong (Printf.sprintf "no first answer for #%d" k)
            | _, None -> Wrong "replay returned no advice")
          | None -> (
            let key = (r.Gen.index, s.Drive.response) in
            match Hashtbl.find_opt checked key with
            | Some v -> v
            | None ->
              let v =
                match Verify.check ~db r s.Drive.response with
                | Ok () -> Right
                | Error msg -> Wrong msg
              in
              Hashtbl.replace checked key v;
              v))
      in
      (s, verdict))
    samples

(* Wrong answers, refusals and crashes all count against [failed_frac]. *)
let tally verdicts =
  let failed = List.length (List.filter (fun (_, v) -> v <> Right) verdicts) in
  let failures =
    List.filter_map
      (fun ((s : Drive.sample), v) ->
        let tag = Printf.sprintf "#%d %s" s.Drive.req.Gen.index s.Drive.req.Gen.label in
        match v with
        | Right -> None
        | Wrong m -> Some (tag ^ ": " ^ m)
        | Refused -> Some (tag ^ ": refused (overloaded)")
        | Crashed -> Some (tag ^ ": worker crash"))
      verdicts
  in
  (List.length verdicts, failed, failures)

let failed_frac verdicts =
  let attempted, failed, _ = tally verdicts in
  if attempted = 0 then 0. else float_of_int failed /. float_of_int attempted

(* ------------------------------------------------------------------ *)
(* Shared pieces of a run                                              *)
(* ------------------------------------------------------------------ *)

let setup_reps = 9

let response_wall_ms response =
  match Wire.Response.of_line response with
  | Ok { Wire.Response.wall_ms = Some w; _ } -> Some w
  | _ -> None

let width_um ~workload ~primed (samples : Drive.sample list) =
  let k = Gen.quality_prefix workload in
  List.fold_left
    (fun a (s : Drive.sample) ->
      if s.Drive.req.Gen.index < k then a +. Verify.winner_width s.Drive.response
      else a)
    0. (primed @ samples)

type prepared = {
  gen : Gen.t;
  daemon : Drive.daemon;
  setups : float list;
  setup_reference_ms : float;  (** the host-speed reference over the set-ups *)
  primed : Drive.sample list;
}

let prepare ~seed ?sink ?mins workload =
  let mins = match mins with Some m -> m | None -> Gen.probe workload in
  let gen = Gen.create ~seed ~mins workload in
  let (daemon, setups), setup_reference_ms =
    match sink with
    | None -> Reference.timed (fun () -> Drive.setup ~reps:setup_reps workload)
    | Some sink -> ((Drive.start_daemon ~sink workload, []), Reference.nominal_ms)
  in
  let primed = Drive.prime ~gen daemon (Gen.primed workload) in
  { gen; daemon; setups; setup_reference_ms; primed }

let timed_pass ?sample_queue ?(min_count = 1) ~stop p workload =
  Drive.run_pass ?sample_queue ~unit:(Gen.unit workload) ~gen:p.gen
    ~clients:(min (Gen.clients workload) (Drive.cores ()))
    ~first:(Gen.primed workload) ~min_count ~stop p.daemon

let m ?(n = 0) name unit value = { name; value; unit; n }

(* Client-side figures of a timed pass, raw and scaled to the nominal
   host speed by the reference measured over it ({!Reference}).  The
   geometric mean runs over the requests that expect advice, alike in
   each of a run's whole units; throughput counts correct replies over
   the pass's wall time. *)
type client = {
  gmean_ms : float;
  p50_ms : float;
  p90_ms : float;
  rps : float;
  reference_ms : float;  (** mean reference repetition over the pass *)
  scale : float;  (** nominal over measured host speed *)
}

(* Correct answers in the timed window. *)
let right ~workload verdicts =
  List.length
    (List.filter
       (fun ((s : Drive.sample), v) ->
         v = Right && s.Drive.req.Gen.index >= Gen.primed workload)
       verdicts)

let client ~right ~reference_ms (pass : Drive.pass) =
  let lat = List.map Drive.latency_ms pass.Drive.samples in
  let advised =
    List.filter_map
      (fun (s : Drive.sample) ->
        if s.Drive.req.Gen.expect = Gen.Advice then Some (log (Drive.latency_ms s))
        else None)
      pass.Drive.samples
  in
  {
    gmean_ms = (if advised = [] then 0. else exp (mean advised));
    p50_ms = quantile 0.5 lat;
    p90_ms = quantile 0.9 lat;
    rps = (if pass.Drive.wall_s > 0. then float_of_int right /. pass.Drive.wall_s else 0.);
    reference_ms;
    scale = Reference.factor reference_ms;
  }

(* ------------------------------------------------------------------ *)
(* End-to-end run (tracing off)                                        *)
(* ------------------------------------------------------------------ *)

let end_to_end ~db ~seed ~seconds workload =
  let p = prepare ~seed workload in
  let pass, reference_ms =
    Reference.timed (fun () ->
        timed_pass ~min_count:(Gen.min_timed workload) ~stop:(Drive.Seconds seconds) p
          workload)
  in
  Drive.stop_daemon p.daemon;
  let verdicts = judge ~db ~refs:(Hashtbl.create 64) (p.primed @ pass.Drive.samples) in
  let attempted, failed, failures = tally verdicts in
  let n = List.length pass.Drive.samples in
  let c = client ~right:(right ~workload verdicts) ~reference_ms pass in
  {
    attempted;
    failed;
    failures;
    metrics =
      [
        m ~n:(List.length p.setups) "setup_s" "s"
          (median p.setups *. Reference.factor p.setup_reference_ms);
        m ~n "latency_gmean_norm_ms" "ms" (c.gmean_ms *. c.scale);
        m ~n "throughput_norm_rps" "req/s" (c.rps /. c.scale);
        m ~n:(Gen.quality_prefix workload) "width_um" "um"
          (width_um ~workload ~primed:p.primed pass.Drive.samples);
        m "peak_rss_mb" "MB" pass.Drive.prefix_rss_mb;
      ];
  }

(* ------------------------------------------------------------------ *)
(* Traced run (per-layer)                                              *)
(* ------------------------------------------------------------------ *)

type traced = {
  pass : Drive.pass;
  reference_ms : float;  (** the host-speed reference over the pass *)
  per_req : (Drive.sample * Spans.layers * float option) list;
      (** sample, its span aggregates, its response [wall_ms] *)
  standalone : Layers.t list;  (** one per distinct request *)
  store : Drive.store_counts;
}

(* One JSON line per span: the request's root and every program span
   attributed to it, with its parent, duration and self time. *)
let write_spans file trees =
  let oc = open_out file in
  List.iter
    (fun (request, nodes) ->
      List.iter
        (fun (n : Spans.node) ->
          output_string oc
            (Jsonx.to_string
               (Jsonx.Obj
                  [
                    ("request", Jsonx.Str request);
                    ("id", Jsonx.Num (float_of_int n.Spans.id));
                    ("parent", Jsonx.Num (float_of_int n.Spans.parent));
                    ("span", Jsonx.Str n.Spans.span);
                    ("label", Jsonx.Str n.Spans.label);
                    ("start_ms", Jsonx.Num n.Spans.start_ms);
                    ("dur_ms", Jsonx.Num n.Spans.dur_ms);
                    ("self_ms", Jsonx.Num n.Spans.self_ms);
                  ]));
          output_char oc '\n')
        nodes)
    trees;
  close_out oc

(* Run [stop] worth of requests over [p]'s daemon with tracing on: the
   recorder's sink on the engine and on the global tracepoint stream,
   the store record wrapped; then the standalone probes. *)
let traced_pass ?spans_out ~db ~recorder ~stop p workload =
  let store = Drive.store_counts () in
  (match Server.store p.daemon.Drive.server with
  | Some s ->
    Engine.set_store p.daemon.Drive.engine
      (Some (Drive.instrument_store store (Store.engine_store s)))
  | None -> ());
  Engine.set_sink p.daemon.Drive.engine recorder.Spans.sink;
  Trace.install_global recorder.Spans.sink;
  let pass, reference_ms =
    Fun.protect ~finally:Trace.uninstall_global (fun () ->
        Reference.timed (fun () -> timed_pass ~sample_queue:true ~stop p workload))
  in
  Engine.set_sink p.daemon.Drive.engine Trace.null;
  let spans = recorder.Spans.drain () in
  let roots = Drive.roots pass.Drive.samples in
  Option.iter
    (fun file ->
      write_spans file
        (List.map
           (fun ((s : Drive.sample), root) ->
             let id = Gen.id p.gen s.Drive.req.Gen.index in
             (id, Spans.tree ~domain:s.Drive.domain ~root ~request:id spans))
           roots))
    spans_out;
  let per_req =
    List.map
      (fun ((s : Drive.sample), (lo, hi)) ->
        let wall = response_wall_ms s.Drive.response in
        let run_hi = match wall with Some w -> lo +. (w /. 1e3) | None -> hi in
        (s, Spans.layers ~domain:s.Drive.domain ~root:(lo, hi) ~run_window:(lo, run_hi) spans, wall))
      roots
    |> List.sort (fun ((a : Drive.sample), _, _) ((b : Drive.sample), _, _) ->
           compare a.Drive.req.Gen.index b.Drive.req.Gen.index)
  in
  Drive.stop_daemon p.daemon;
  (* Standalone probes, once per distinct request, after the pass. *)
  let seen = Hashtbl.create 64 in
  let standalone =
    List.filter_map
      (fun (s : Drive.sample) ->
        let r = s.Drive.req in
        let k = Option.value ~default:r.Gen.index r.Gen.repeat_of in
        if Hashtbl.mem seen k then None
        else begin
          Hashtbl.replace seen k ();
          Layers.probe ~db ~engine:p.daemon.Drive.engine ~line:r.Gen.line
            ~response:s.Drive.response
        end)
      pass.Drive.samples
  in
  { pass; reference_ms; per_req; standalone; store }

let per_layer_metrics ~(untraced : client) (t : traced) verdicts =
  let reqs = t.per_req in
  let nreq = List.length reqs in
  let p50 f = median (List.map f reqs) in
  let p50f f = p50 (fun (_, l, _) -> f l) in
  let p50i f = p50 (fun (_, l, _) -> float_of_int (f l)) in
  let total f = float_of_int (List.fold_left (fun a (_, l, _) -> a + f l) 0 reqs) in
  let sa = t.standalone in
  let ns = List.length sa in
  let sa_p50 f = median (List.map f sa) in
  let winners = List.filter_map (fun (l : Layers.t) -> l.Layers.winner) sa in
  let nw = List.length winners in
  let w_p50 f = median (List.map f winners) in
  let plans = List.filter_map (fun w -> w.Layers.hier_plan) winners in
  let hits_us = List.filter_map (fun w -> w.Layers.sizing_hit_us) winners in
  let c = t.pass.Drive.counters in
  let looked = c.Engine.hits + c.Engine.store_hits + c.Engine.misses in
  let advised =
    List.filter_map
      (fun ((s : Drive.sample), l, wall) ->
        Option.map (fun w -> (s, l, w)) wall)
      reqs
  in
  let lat_traced =
    List.map (fun ((s : Drive.sample), _, _) -> Drive.latency_ms s) reqs
  in
  (* Overhead over the same indices, each pass at the nominal host
     speed. *)
  let traced = client ~right:0 ~reference_ms:t.reference_ms t.pass in
  let untraced_ms = untraced.gmean_ms *. untraced.scale in
  let traced_ms = traced.gmean_ms *. traced.scale in
  let latency_sum = List.fold_left ( +. ) 0. lat_traced in
  let covered = List.fold_left (fun a (_, l, _) -> a +. l.Spans.covered_ms) 0. reqs in
  let explore f =
    median
      (List.filter_map
         (fun ((s : Drive.sample), _, _) ->
           match Wire.Response.of_line s.Drive.response with
           | Ok { Wire.Response.payload = Wire.Response.Advice a; _ } ->
             Some (float_of_int (f a))
           | _ -> None)
         reqs)
  in
  let store = t.store in
  let cnt = float_of_int in
  (* Corner figures over the requests that asked for a corner set. *)
  let robust =
    List.filter
      (fun ((s : Drive.sample), _, _) -> String.contains s.Drive.req.Gen.label '[')
      reqs
  in
  [
    m ~n:nreq "client.latency_gmean_ms" "ms" untraced.gmean_ms;
    m ~n:nreq "client.latency_p50_ms" "ms" untraced.p50_ms;
    m ~n:nreq "client.latency_p90_ms" "ms" untraced.p90_ms;
    m ~n:nreq "client.throughput_rps" "req/s" untraced.rps;
    m ~n:nreq "host.reference_ms" "ms" untraced.reference_ms;
    m ~n:ns "serve.decode_us" "us" (sa_p50 (fun l -> l.Layers.decode_us));
    m ~n:ns "serve.encode_us" "us" (sa_p50 (fun l -> l.Layers.encode_us));
    m ~n:(List.length advised) "serve.outside_run_ms" "ms"
      (median
         (List.map (fun ((s : Drive.sample), _, w) -> Drive.latency_ms s -. w) advised));
    m ~n:nreq "serve.queue_depth_mean" "count"
      (mean (List.map (fun ((s : Drive.sample), _, _) -> cnt s.Drive.queued) reqs));
    m "serve.refused" "count"
      (cnt (List.length (List.filter (fun (_, v) -> v = Refused) verdicts)));
    m ~n:(List.length verdicts) "failed_frac" "ratio" (failed_frac verdicts);
    m ~n:(List.length store.Drive.find_s) "store.find_us" "us"
      (1e6 *. median store.Drive.find_s);
    m ~n:(List.length store.Drive.save_s) "store.save_us" "us"
      (1e6 *. median store.Drive.save_s);
    m "store.finds" "count" (cnt store.Drive.finds);
    m "store.saves" "count" (cnt store.Drive.saves);
    m "store.find_hit_frac" "ratio"
      (if store.Drive.finds = 0 then 0.
       else cnt store.Drive.find_hits /. cnt store.Drive.finds);
    m "engine.hits" "count" (cnt c.Engine.hits);
    m "engine.store_hits" "count" (cnt c.Engine.store_hits);
    m "engine.misses" "count" (cnt c.Engine.misses);
    m "engine.evictions" "count" (cnt c.Engine.evictions);
    m "engine.hit_rate" "ratio"
      (if looked = 0 then 0. else cnt (c.Engine.hits + c.Engine.store_hits) /. cnt looked);
    m ~n:(List.length hits_us) "engine.sizing_hit_us" "us" (median hits_us);
    m ~n:nreq "engine.sizing_miss_ms_per_req" "ms/req" (p50f (fun l -> l.Spans.sizing_miss_ms));
    m ~n:nreq "engine.analysis_ms_per_req" "ms/req" (p50f (fun l -> l.Spans.analysis_ms));
    m ~n:(List.length advised) "core.self_ms_per_req" "ms/req"
      (median (List.map (fun (_, l, w) -> Float.max 0. (w -. l.Spans.in_run_ms)) advised));
    m ~n:ns "database.build_ms" "ms" (sa_p50 (fun l -> l.Layers.db_build_ms));
    m ~n:ns "database.candidates" "count" (sa_p50 (fun l -> cnt l.Layers.db_candidates));
    m ~n:nreq "lint.run_ms_per_req" "ms/req" (p50f (fun l -> l.Spans.lint_ms));
    m ~n:nreq "lint.runs_per_req" "count/req" (p50i (fun l -> l.Spans.lint_runs));
    m ~n:ns "absint.precheck_ms_per_req" "ms/req" (sa_p50 (fun l -> l.Layers.precheck_ms));
    m ~n:nreq "absint.analyze_ms" "ms" (p50f (fun l -> l.Spans.analysis_ms));
    m "absint.certificates" "count"
      (cnt (List.fold_left (fun a l -> a + l.Layers.certificates) 0 sa));
    m ~n:nreq "explore.candidates_per_req" "count/req"
      (explore (fun a -> List.length a.Wire.Advice.ranked));
    m ~n:nreq "explore.rejected_per_req" "count/req"
      (explore (fun a -> List.length a.Wire.Advice.rejected));
    m ~n:nreq "sizer.size_ms_per_req" "ms/req" (p50f (fun l -> l.Spans.sizer_ms));
    m ~n:nreq "sizer.iterations" "count" (p50i (fun l -> l.Spans.sizer_iterations));
    m ~n:nreq "sizer.self_ms_per_req" "ms/req" (p50f (fun l -> l.Spans.sizer_self_ms));
    m ~n:nw "paths.extract_ms" "ms" (w_p50 (fun w -> w.Layers.paths_ms));
    m ~n:nw "paths.paths" "count" (w_p50 (fun w -> cnt w.Layers.paths));
    m ~n:nw "paths.classes" "count" (w_p50 (fun w -> cnt w.Layers.classes));
    m ~n:nw "constraints.generate_ms" "ms" (w_p50 (fun w -> w.Layers.generate_ms));
    m ~n:nw "constraints.inequalities" "count" (w_p50 (fun w -> cnt w.Layers.inequalities));
    m ~n:nw "constraints.variables" "count" (w_p50 (fun w -> cnt w.Layers.variables));
    m ~n:nw "gp.compile_ms" "ms" (w_p50 (fun w -> w.Layers.compile_ms));
    m ~n:nreq "gp.solve_ms_per_req" "ms/req" (p50f (fun l -> l.Spans.gp_ms));
    m ~n:nreq "gp.solves_per_req" "count/req" (p50i (fun l -> l.Spans.gp_solves));
    m ~n:nreq "gp.newton_iters_per_req" "count/req" (p50i (fun l -> l.Spans.gp_newton));
    m ~n:nreq "gp.centering_per_req" "count/req" (p50i (fun l -> l.Spans.gp_centering));
    m "gp.warm_frac" "ratio"
      (let solves = total (fun l -> l.Spans.gp_solves) in
       if solves = 0. then 0. else total (fun l -> l.Spans.gp_warm) /. solves);
    m ~n:nreq "sta.analyze_ms_per_req" "ms/req" (p50f (fun l -> l.Spans.sta_ms));
    m ~n:nreq "sta.calls_per_req" "count/req" (p50i (fun l -> l.Spans.sta_calls));
    m ~n:(List.length robust) "corners.size_ms_per_req" "ms/req"
      (median (List.map (fun (_, l, _) -> l.Spans.corners_ms) robust));
    m ~n:(List.length robust) "corners.sta_calls_per_req" "count/req"
      (median (List.map (fun (_, l, _) -> cnt l.Spans.corners_sta) robust));
    m ~n:(List.length plans) "hier.plan_ms" "ms"
      (median (List.map (fun (ms, _, _) -> ms) plans));
    m "hier.classes" "count" (median (List.map (fun (_, c, _) -> cnt c) plans));
    m "hier.partitions" "count" (median (List.map (fun (_, _, p) -> cnt p) plans));
    m "hier.subsolves" "count" (total (fun l -> l.Spans.hier_subsolves));
    m "hier.subsolve_hits" "count" (total (fun l -> l.Spans.hier_subsolve_hits));
    m ~n:nreq "trace.overhead_pct" "%"
      (if untraced_ms > 0. then 100. *. ((traced_ms /. untraced_ms) -. 1.) else 0.);
    m ~n:nreq "trace.coverage_pct" "%"
      (if latency_sum > 0. then 100. *. covered /. latency_sum else 0.);
  ]

let traced_run ~spans_out ~db ~seed ~seconds workload =
  (* Untraced pass: tracing off, for the overhead figure. *)
  let pa = prepare ~seed workload in
  let pass_a, reference_a =
    Reference.timed (fun () ->
        timed_pass ~stop:(Drive.Seconds (seconds /. 2.)) pa workload)
  in
  let recorder = Spans.recorder () in
  let pb =
    if workload = Gen.Warm_repeat then pa
      (* A warm daemon stays warm: the traced pass replays the same
         indices on it with tracing attached. *)
    else begin
      Drive.stop_daemon pa.daemon;
      prepare ~seed ~sink:recorder.Spans.sink ~mins:pa.gen.Gen.mins workload
    end
  in
  let traced =
    traced_pass ~spans_out ~db ~recorder
      ~stop:(Drive.Count (List.length pass_a.Drive.samples))
      pb workload
  in
  let refs = Hashtbl.create 64 in
  let verdicts_a = judge ~db ~refs (pa.primed @ pass_a.Drive.samples) in
  let verdicts_b = judge ~db ~refs traced.pass.Drive.samples in
  let attempted, failed, failures = tally (verdicts_a @ verdicts_b) in
  let right = right ~workload verdicts_a in
  {
    attempted;
    failed;
    failures;
    metrics =
      per_layer_metrics
        ~untraced:(client ~right ~reference_ms:reference_a pass_a)
        traced verdicts_b;
  }

(* ------------------------------------------------------------------ *)
(* Count determinism                                                   *)
(* ------------------------------------------------------------------ *)

(* Deterministic counts of one traced pass over [n] requests, by name:
   per request on single-client workloads, per pass otherwise. *)
let counts ~db ~seed ~n workload =
  let recorder = Spans.recorder () in
  let p = prepare ~seed ~sink:recorder.Spans.sink workload in
  let t = traced_pass ~db ~recorder ~stop:(Drive.Count n) p workload in
  let per_request =
    List.concat_map
      (fun ((s : Drive.sample), (l : Spans.layers), _) ->
        let i = s.Drive.req.Gen.index in
        let k name v = (Printf.sprintf "%s#%d" name i, v) in
        let d = Option.value s.Drive.delta ~default:t.pass.Drive.counters in
        [
          k "gp.solves" (float_of_int l.Spans.gp_solves);
          k "gp.newton_iters" (float_of_int l.Spans.gp_newton);
          k "sta.calls" (float_of_int l.Spans.sta_calls);
          k "hier.subsolves" (float_of_int l.Spans.hier_subsolves);
          k "hier.subsolve_hits" (float_of_int l.Spans.hier_subsolve_hits);
          k "engine.hits" (float_of_int d.Engine.hits);
          k "engine.misses" (float_of_int d.Engine.misses);
          k "width_um" (Verify.winner_width s.Drive.response);
        ])
      t.per_req
  in
  let standalone =
    List.concat
      (List.mapi
         (fun i (l : Layers.t) ->
           match l.Layers.winner with
           | None -> []
           | Some w ->
             let k name v = (Printf.sprintf "%s@%d" name i, float_of_int v) in
             [
               k "constraints.inequalities" w.Layers.inequalities;
               k "constraints.variables" w.Layers.variables;
               k "paths.paths" w.Layers.paths;
               k "paths.classes" w.Layers.classes;
             ]
             @
             match w.Layers.hier_plan with
             | Some (_, c, p) -> [ k "hier.classes" c; k "hier.partitions" p ]
             | None -> [])
         t.standalone)
  in
  if Gen.clients workload > 1 then
    let c = t.pass.Drive.counters in
    [
      ("engine.hits", float_of_int c.Engine.hits);
      ("engine.misses", float_of_int c.Engine.misses);
      ("engine.store_hits", float_of_int c.Engine.store_hits);
    ]
    @ List.filter
        (fun (k, _) ->
          not (String.length k > 7 && String.sub k 0 7 = "engine."))
        per_request
    @ standalone
  else per_request @ standalone
