(* The daemon under test and the closed-loop clients that drive it.

   The daemon is [Smart_serve.Server] in-process; a client hands a line
   to [Server.submit] and blocks until the reply callback fires, so the
   latency recorded here is the one a caller of the daemon sees: queue
   wait, decode, the advisory flow, the diagnostics sidecar and encode. *)

module Smart = Smart_core.Smart
module Engine = Smart.Engine
module Server = Smart_serve.Server
module Store = Smart_serve.Store
module Jsonx = Smart_serve.Jsonx

let now = Unix.gettimeofday

(* ------------------------------------------------------------------ *)
(* Scratch directories                                                 *)
(* ------------------------------------------------------------------ *)

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error _ -> ()

let scratch_dirs = ref []

let fresh_dir () =
  let d = Filename.temp_dir "smartbench-store." "" in
  scratch_dirs := d :: !scratch_dirs;
  d

let remove_scratch () =
  List.iter rm_rf !scratch_dirs;
  scratch_dirs := []

(* ------------------------------------------------------------------ *)
(* Store instrumentation                                               *)
(* ------------------------------------------------------------------ *)

type store_counts = {
  mutable finds : int;
  mutable find_hits : int;
  mutable saves : int;
  mutable find_s : float list;
  mutable save_s : float list;
}

let store_counts () =
  { finds = 0; find_hits = 0; saves = 0; find_s = []; save_s = [] }

(* Wrap the record [Store.engine_store] hands the engine, timing every
   lookup and save. *)
let instrument_store (c : store_counts) (s : Engine.Store.t) =
  let m = Mutex.create () in
  let record f = Mutex.protect m f in
  {
    Engine.Store.find =
      (fun key ->
        let t0 = now () in
        let r = s.Engine.Store.find key in
        let dt = now () -. t0 in
        record (fun () ->
            c.finds <- c.finds + 1;
            if r <> None then c.find_hits <- c.find_hits + 1;
            c.find_s <- dt :: c.find_s);
        r);
    save =
      (fun key blob ->
        let t0 = now () in
        s.Engine.Store.save key blob;
        let dt = now () -. t0 in
        record (fun () ->
            c.saves <- c.saves + 1;
            c.save_s <- dt :: c.save_s));
  }

(* ------------------------------------------------------------------ *)
(* Daemons                                                             *)
(* ------------------------------------------------------------------ *)

type daemon = { server : Server.t; engine : Engine.t }

let cores () = max 1 (Domain.recommended_domain_count ())

let start_daemon ?sink workload =
  (* The engine the daemon would create for itself — single-domain,
     default 256-entry cache — made here so the traced run can hand it a
     sink. *)
  let engine = Engine.create ~workers:1 ?sink () in
  let cache_dir = if Gen.uses_store workload then Some (fresh_dir ()) else None in
  let server =
    Server.create
      ~workers:(min (Gen.workers workload) (cores ()))
      ?cache_dir ~engine ()
  in
  { server; engine }

let stop_daemon d = Server.shutdown d.server

let warmup_line = {|{"v":1,"id":"warmup","op":"advise","kind":"mux","bits":8,"delay":60}|}

(* One set-up: the database, the daemon (engine, store warm-up), and the
   process's lazy first-request cost, paid on a throwaway daemon so the
   daemon under test starts cold. *)
let setup_once workload =
  let t0 = now () in
  ignore (Smart.Database.builtins ());
  let d = start_daemon workload in
  let throwaway = Server.create ~workers:1 () in
  ignore (Server.handle_line throwaway warmup_line);
  Server.shutdown throwaway;
  (d, now () -. t0)

(* [reps] set-ups; every daemon but the last is shut down.  Returns the
   last daemon and every set-up's wall time. *)
let setup ~reps workload =
  let rec go k acc =
    let d, s = setup_once workload in
    if k <= 1 then (d, List.rev (s :: acc))
    else begin
      stop_daemon d;
      go (k - 1) (s :: acc)
    end
  in
  go reps []

(* ------------------------------------------------------------------ *)
(* Closed-loop clients                                                 *)
(* ------------------------------------------------------------------ *)

type sample = {
  req : Gen.request;
  submit : float;
  reply_at : float;
  domain : int;  (** the worker domain that answered *)
  response : string;
  queued : int;  (** daemon queue depth at submit (traced pass; else -1) *)
  delta : Engine.cache_stats option;
      (** counters this request moved — single-client passes only *)
}

let latency_ms s = 1e3 *. (s.reply_at -. s.submit)

let queue_depth server =
  match Jsonx.member "queued" (Server.stats server) with
  | Some n -> Option.value ~default:0 (Jsonx.to_int n)
  | None -> 0

let call ~sample_queue d (req : Gen.request) =
  let m = Mutex.create () and c = Condition.create () in
  let slot = ref None in
  let queued = if sample_queue then queue_depth d.server else -1 in
  let submit = now () in
  Server.submit d.server req.Gen.line ~reply:(fun response ->
      let at = now () in
      let domain = (Domain.self () :> int) in
      Mutex.protect m (fun () ->
          slot := Some (response, at, domain);
          Condition.signal c));
  Mutex.lock m;
  while !slot = None do
    Condition.wait c m
  done;
  Mutex.unlock m;
  match !slot with
  | Some (response, reply_at, domain) ->
    { req; submit; reply_at; domain; response; queued; delta = None }
  | None -> assert false

let diff (a : Engine.cache_stats) (b : Engine.cache_stats) =
  {
    Engine.hits = b.Engine.hits - a.Engine.hits;
    store_hits = b.Engine.store_hits - a.Engine.store_hits;
    misses = b.Engine.misses - a.Engine.misses;
    evictions = b.Engine.evictions - a.Engine.evictions;
    entries = b.Engine.entries;
    capacity = b.Engine.capacity;
  }

let peak_rss_mb () =
  try
    let ic = open_in "/proc/self/status" in
    let rec scan () =
      match input_line ic with
      | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" (fun kb ->
            float_of_int kb /. 1024.)
      | _ -> scan ()
      | exception End_of_file -> 0.
    in
    let r = scan () in
    close_in ic;
    r
  with Sys_error _ -> 0.

type stop = Seconds of float | Count of int

type pass = {
  samples : sample list;  (** in index order *)
  wall_s : float;  (** first submit to last reply *)
  prefix_rss_mb : float;
      (** the process's peak RSS once the first [min_count] requests,
          rounded up to whole units, were served: the same work in every
          run, however many units it holds *)
  counters : Engine.cache_stats;  (** moved over the pass *)
}

(* Drive indices [first, ...) through the daemon with [clients] closed-
   loop clients pulling from one shared counter.  A time-bounded pass
   serves whole units of [unit] requests (a workload's cycle, pass or
   block, so every run holds the same mix): at least [min_count]
   requests, then one more unit only while one more unit at the mean
   time per request so far still ends inside [seconds].  Every issued
   request is waited for. *)
let run_pass ?(sample_queue = false) ?(unit = 1) ~gen ~clients ~first ~min_count
    ~stop d =
  let next = Atomic.make first in
  let out = Mutex.create () in
  let samples = ref [] in
  let single = clients = 1 in
  let before = Engine.cache_stats d.engine in
  let t0 = now () in
  let served = ref 0 in
  let per_request () =
    Mutex.protect out (fun () ->
        if !served = 0 then 0. else (now () -. t0) /. float_of_int !served)
  in
  let round_up n = (n + unit - 1) / unit * unit in
  let prefix = round_up (max 1 min_count) and prefix_rss = ref 0. in
  let gate = Mutex.create () in
  let allowed, stopped =
    match stop with
    | Count n -> (ref (first + n), ref true)
    | Seconds _ -> (ref (first + prefix), ref false)
  in
  let keep_going i =
    Mutex.protect gate (fun () ->
        (match stop with
        | Count _ -> ()
        | Seconds s ->
          while i >= !allowed && not !stopped do
            if now () -. t0 +. (float_of_int unit *. per_request ()) <= s then
              allowed := !allowed + unit
            else stopped := true
          done);
        i < !allowed)
  in
  let client () =
    let rec loop () =
      let i = Atomic.fetch_and_add next 1 in
      if keep_going i then begin
        let req = Gen.request gen i in
        let c0 = if single then Some (Engine.cache_stats d.engine) else None in
        let s = call ~sample_queue d req in
        let delta =
          Option.map (fun c0 -> diff c0 (Engine.cache_stats d.engine)) c0
        in
        Mutex.protect out (fun () ->
            samples := { s with delta } :: !samples;
            incr served;
            if !served = prefix then prefix_rss := peak_rss_mb ());
        loop ()
      end
    in
    loop ()
  in
  (if single then client ()
   else
     let threads = List.init clients (fun _ -> Thread.create client ()) in
     List.iter Thread.join threads);
  let samples =
    List.sort (fun a b -> compare a.req.Gen.index b.req.Gen.index) !samples
  in
  let last = List.fold_left (fun a s -> Float.max a s.reply_at) t0 samples in
  let first_submit =
    List.fold_left (fun a s -> Float.min a s.submit) infinity samples
  in
  {
    samples;
    wall_s = (if samples = [] then 0. else last -. first_submit);
    prefix_rss_mb = (if !prefix_rss > 0. then !prefix_rss else peak_rss_mb ());
    counters = diff before (Engine.cache_stats d.engine);
  }

(* Serve indices [0, n) untimed: the warm-repeat working set. *)
let prime ~gen d n =
  (run_pass ~gen ~clients:1 ~first:0 ~min_count:0 ~stop:(Count n) d).samples

(* The root span of each sample: from when its worker could start on it
   (after its submit and after the same worker's previous reply) to its
   reply. *)
let roots samples =
  let last = Hashtbl.create 4 in
  List.sort (fun a b -> compare a.reply_at b.reply_at) samples
  |> List.map (fun s ->
         let prev = Option.value ~default:neg_infinity (Hashtbl.find_opt last s.domain) in
         Hashtbl.replace last s.domain s.reply_at;
         (s, (Float.max s.submit prev, s.reply_at)))
