(* Span recording for the traced run.

   The program's trace events carry only a duration.  The recording sink
   stamps each event with its arrival time and the domain it arrived on,
   and takes start = arrival - duration.  Events stay in memory (an
   {!Smart_engine.Engine.Trace.memory} sink behind the stamping) and are
   attributed to requests afterwards: a program span belongs to the
   request whose root span — opened by the client around the daemon call
   — contains its midpoint on the same domain. *)

module Engine = Smart_core.Smart.Engine
module Trace = Engine.Trace

type span = {
  event : Trace.event;
  start : float;
  stop : float;
  domain : int;
}

type recorder = {
  sink : Trace.sink;
  drain : unit -> span list;
}

let duration (e : Trace.event) =
  match e with
  | Trace.Sizing s -> s.wall_s
  | Trace.Min_delay m -> m.wall_s
  | Trace.Analysis a -> a.wall_s
  | Trace.Gp_solve g -> g.wall_s
  | Trace.Sta_verify s -> s.wall_s
  | Trace.Sizer_span s -> s.wall_s
  | Trace.Lint_span l -> l.wall_s
  | Trace.Raw r -> r.Smart_util.Tracepoint.dur_s

let recorder () =
  let memory, events = Trace.memory () in
  let m = Mutex.create () in
  let stamps = ref [] in
  let sink ev =
    Mutex.protect m (fun () ->
        stamps := (Unix.gettimeofday (), (Domain.self () :> int)) :: !stamps;
        memory ev)
  in
  let drain () =
    Mutex.protect m (fun () ->
        List.map2
          (fun event (stop, domain) ->
            { event; start = stop -. duration event; stop; domain })
          (events ()) (List.rev !stamps))
  in
  { sink; drain }

let mid s = 0.5 *. (s.start +. s.stop)
let inside ~domain (a, b) s = s.domain = domain && mid s >= a && mid s <= b

(* Total length of the union of intervals, clipped to [lo, hi]. *)
let union_length ~lo ~hi spans =
  let iv =
    List.filter_map
      (fun s ->
        let a = Float.max lo s.start and b = Float.min hi s.stop in
        if b > a then Some (a, b) else None)
      spans
    |> List.sort compare
  in
  let total, last =
    List.fold_left
      (fun (total, cur) (a, b) ->
        match cur with
        | None -> (total, Some (a, b))
        | Some (ca, cb) ->
          if a <= cb then (total, Some (ca, Float.max cb b))
          else (total +. (cb -. ca), Some (a, b)))
      (0., None) iv
  in
  match last with None -> total | Some (a, b) -> total +. (b -. a)

(* Per-request aggregates over the spans attributed to one request. *)
type layers = {
  lint_ms : float;
  lint_runs : int;
  sizing_miss_ms : float;
  sizer_iterations : int;
  sizer_ms : float;  (** sizer.size / sizer.size_robust spans *)
  sizer_self_ms : float;  (** sizing misses minus the gp and sta inside *)
  analysis_ms : float;
  gp_solves : int;
  gp_ms : float;
  gp_newton : int;
  gp_centering : int;
  gp_warm : int;
  sta_calls : int;
  sta_ms : float;
  corners_ms : float;
  corners_sta : int;
  hier_subsolves : int;
  hier_subsolve_hits : int;
  covered_ms : float;  (** union of every program span, clipped to the root *)
  in_run_ms : float;
      (** union of the sizing, analysis and lint spans inside the
          [Smart.run] window *)
}

let ms s = 1e3 *. s

let is_robust label = String.contains label '['
let is_hier label = String.length label > 5 && String.sub label 0 5 = "hier:"

let sum f l = List.fold_left (fun a x -> a +. f x) 0. l
let count p l = List.length (List.filter p l)

let layers ~domain ~root:(lo, hi) ~run_window spans =
  let mine = List.filter (inside ~domain (lo, hi)) spans in
  let dur s = ms (s.stop -. s.start) in
  let sizings =
    List.filter_map
      (fun s ->
        match s.event with
        | Trace.Sizing { label; cache; iterations; _ } ->
          Some (s, (label, cache, iterations))
        | _ -> None)
      mine
  in
  let misses = List.filter (fun (_, (_, c, _)) -> c = Trace.Miss) sizings in
  let is_hit c = c = Trace.Hit || c = Trace.Disk in
  let gps =
    List.filter_map
      (fun s ->
        match s.event with
        | Trace.Gp_solve { newton; centering; warm; _ } ->
          Some (s, (newton, centering, warm))
        | _ -> None)
      mine
  in
  let stas =
    List.filter (fun s -> match s.event with Trace.Sta_verify _ -> true | _ -> false) mine
  in
  let within (a : span) (b : span) = inside ~domain:a.domain (a.start, a.stop) b in
  let gp_sta_in parent =
    sum (fun (s, _) -> if within parent s then dur s else 0.) gps
    +. sum (fun s -> if within parent s then dur s else 0.) stas
  in
  let top =
    List.filter
      (fun s ->
        match s.event with
        | Trace.Sizing _ | Trace.Analysis _ | Trace.Lint_span _ -> true
        | _ -> false)
      mine
  in
  let run_lo, run_hi = run_window in
  let robust = List.filter (fun (_, (l, _, _)) -> is_robust l) misses in
  {
    lint_ms =
      sum (fun s -> match s.event with Trace.Lint_span _ -> dur s | _ -> 0.) mine;
    lint_runs = count (fun s -> match s.event with Trace.Lint_span _ -> true | _ -> false) mine;
    sizing_miss_ms = sum (fun (s, _) -> dur s) misses;
    sizer_iterations = List.fold_left (fun a (_, (_, _, i)) -> a + i) 0 misses;
    sizer_ms =
      sum
        (fun s ->
          match s.event with
          | Trace.Sizer_span _ -> dur s
          | Trace.Raw r when r.Smart_util.Tracepoint.span = "sizer.size_robust" -> dur s
          | _ -> 0.)
        mine;
    sizer_self_ms =
      sum (fun (s, _) -> Float.max 0. (dur s -. gp_sta_in s)) misses;
    analysis_ms =
      sum (fun s -> match s.event with Trace.Analysis _ -> dur s | _ -> 0.) mine;
    gp_solves = List.length gps;
    gp_ms = sum (fun (s, _) -> dur s) gps;
    gp_newton = List.fold_left (fun a (_, (n, _, _)) -> a + n) 0 gps;
    gp_centering = List.fold_left (fun a (_, (_, c, _)) -> a + c) 0 gps;
    gp_warm = count (fun (_, (_, _, w)) -> w) gps;
    sta_calls = List.length stas;
    sta_ms = sum dur stas;
    corners_ms = sum (fun (s, _) -> dur s) robust;
    corners_sta =
      List.fold_left
        (fun a (s, _) -> a + count (fun t -> within s t) stas)
        0 robust;
    hier_subsolves = count (fun (_, (l, _, _)) -> is_hier l) sizings;
    hier_subsolve_hits =
      count (fun (_, (l, c, _)) -> is_hier l && is_hit c) sizings;
    covered_ms = ms (union_length ~lo ~hi mine);
    in_run_ms =
      ms
        (union_length ~lo:run_lo ~hi:run_hi
           (List.filter (fun s -> mid s >= run_lo && mid s <= run_hi) top));
  }

(* ------------------------------------------------------------------ *)
(* The span tree, for writing out                                      *)
(* ------------------------------------------------------------------ *)

let name_of (e : Trace.event) =
  match e with
  | Trace.Sizing s -> ("engine.sizing", s.label)
  | Trace.Min_delay m -> ("engine.min_delay", m.label)
  | Trace.Analysis a -> ("engine.analysis", a.label)
  | Trace.Gp_solve _ -> ("gp.solve", "")
  | Trace.Sta_verify s -> ("sta.analyze", s.netlist)
  | Trace.Sizer_span s -> ("sizer.size", s.netlist)
  | Trace.Lint_span l -> ("lint.run", l.netlist)
  | Trace.Raw r -> (r.Smart_util.Tracepoint.span, "")

type node = {
  id : int;
  parent : int;  (** -1 for the request's root *)
  span : string;
  label : string;
  start_ms : float;  (** from the root's start *)
  dur_ms : float;
  self_ms : float;  (** duration minus the time its children cover *)
}

(* One request's tree: the root span (id 0) and every program span
   attributed to it, each parented to the shortest span that contains
   its midpoint. *)
let tree ~domain ~root:(lo, hi) ~request spans =
  let mine =
    List.filter (inside ~domain (lo, hi)) spans
    |> List.sort (fun a b -> compare (b.stop -. b.start) (a.stop -. a.start))
    |> Array.of_list
  in
  let n = Array.length mine in
  let parent =
    Array.init n (fun i ->
        let best = ref (-1) in
        for j = 0 to n - 1 do
          let s = mine.(j) in
          if j < i && s.start <= mid mine.(i) && mid mine.(i) <= s.stop
          then
            match !best with
            | b when b >= 0 && mine.(b).stop -. mine.(b).start <= s.stop -. s.start -> ()
            | _ -> best := j
        done;
        !best)
  in
  let children k =
    List.filter_map
      (fun i -> if parent.(i) = k then Some mine.(i) else None)
      (List.init n Fun.id)
  in
  let root_self = ms (hi -. lo -. union_length ~lo ~hi (children (-1))) in
  {
    id = 0;
    parent = -1;
    span = "request";
    label = request;
    start_ms = 0.;
    dur_ms = ms (hi -. lo);
    self_ms = root_self;
  }
  :: List.init n (fun i ->
         let s = mine.(i) in
         let span, label = name_of s.event in
         {
           id = i + 1;
           parent = parent.(i) + 1;
           span;
           label;
           start_ms = ms (s.start -. lo);
           dur_ms = ms (s.stop -. s.start);
           self_ms =
             ms (s.stop -. s.start -. union_length ~lo:s.start ~hi:s.stop (children i));
         })
