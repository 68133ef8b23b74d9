(* Seeded workload generator.

   A workload is an infinite, deterministic sequence of wire request
   lines: [request w i] is a pure function of the workload's seed and the
   index [i], so the same seed always gives byte-identical lines and two
   passes over one seed see the same inputs in the same order.

   Targets are placed relative to each instance's minimum delay, computed
   by {!probe} on a throwaway engine so the daemon under test starts
   cold.  Compositions are stratified: every cycle (block) of a workload
   holds the same multiset of instance kinds, and the seed only permutes
   the order inside a cycle and jitters each target by a few percent.
   Run-to-run figures therefore move with the program, not with the
   luck of the draw. *)

module Smart = Smart_core.Smart
module Engine = Smart.Engine
module Database = Smart.Database
module Corners = Smart.Corners
module Rng = Smart_util.Rng

type instance = { kind : string; bits : int }

let inst kind bits = { kind; bits }
let instance_name i = Printf.sprintf "%s/%d" i.kind i.bits

type expect = Advice | Fails of string  (** the expected error code *)

type request = {
  index : int;
  line : string;
  expect : expect;
  label : string;  (** instance (and corner set) the request asks about *)
  repeat_of : int option;
      (** index of the earlier request this one replays verbatim (the
          line differs only in its id) *)
}

type name = Cold_mix | Warm_repeat | Mixed_concurrent | Datapath_hier

let names =
  [
    ("cold-mix", Cold_mix);
    ("warm-repeat", Warm_repeat);
    ("mixed-concurrent", Mixed_concurrent);
    ("datapath-hier", Datapath_hier);
  ]

let name_to_string n = fst (List.find (fun (_, m) -> m = n) names)
let name_of_string s = List.assoc_opt s names

(* Closed-loop shape of each workload: client threads and daemon worker
   domains, both capped at the host's core count by the caller. *)
let clients = function Mixed_concurrent -> 2 | _ -> 1
let workers = clients
let uses_store = function Warm_repeat | Mixed_concurrent -> true | _ -> false

let robust_corners = "fast,typ,slow"

(* ------------------------------------------------------------------ *)
(* Instance mixes                                                      *)
(* ------------------------------------------------------------------ *)

(* cold-mix: one of each cheap instance per cycle, the three large
   instances, three robust (3-corner) requests — about a sixth of the
   advisories — and the three expected-error requests.  Every cycle holds
   the same instances at the same targets (up to the jitter), so a run
   of whole cycles has the same mix whatever its length. *)
let cold_cheap =
  [
    inst "mux" 4; inst "mux" 8; inst "mux" 16; inst "incrementor" 8;
    inst "decrementor" 8; inst "zero-detect" 16; inst "decoder" 4;
    inst "comparator" 8; inst "comparator" 16; inst "shifter" 8;
    inst "register-file" 8;
  ]

let cold_big = [ inst "adder" 8; inst "incrementor" 16; inst "adder" 16 ]

let cold_robust = [ inst "mux" 8; inst "decoder" 4; inst "register-file" 8 ]

(* The expected-error slots: a spec far below the instance's proven
   floor (certified infeasible before any GP work), a width no database
   entry applies to, and a line the wire decoder must refuse. *)
type error_slot = Infeasible | No_topology | Malformed

let cold_errors = [| Infeasible; No_topology; Malformed |]
let infeasible_instance = inst "incrementor" 8
let no_topology_instance = inst "register-file" 6

(* warm-repeat: a working set whose cache entries (one per sized
   candidate plus one interval analysis per advisory) exceed the
   engine's 256-entry memory LRU. *)
let warm_mux_bits = [ 4; 5; 6; 8; 10; 12; 16 ]
let warm_mux_factors = [| 1.15; 1.25; 1.35; 1.45; 1.55; 1.65 |]

let warm_singles =
  [
    inst "incrementor" 8; inst "decrementor" 8; inst "zero-detect" 16;
    inst "decoder" 4; inst "comparator" 8; inst "shifter" 8;
    inst "register-file" 8;
  ]

let warm_single_factors = [| 1.2; 1.5 |]
let warm_adders = [ inst "adder" 8 ]

(* mixed-concurrent: cheap instances only, so two workers see many
   requests and contend on the cache and store. *)
let mixed_pool =
  [
    inst "mux" 4; inst "mux" 8; inst "incrementor" 8; inst "zero-detect" 16;
    inst "decoder" 4; inst "comparator" 8; inst "shifter" 8;
    inst "register-file" 8;
  ]

(* datapath-hier: the smallest chained datapath the hierarchical sizer's
   [`Auto] mode engages on (20 * 15 + 14 = 314 gates, floor 300). *)
let datapath = inst "datapath" 15

let instances = function
  | Cold_mix ->
    cold_cheap @ cold_big @ cold_robust
    @ [ infeasible_instance ]
  | Warm_repeat ->
    List.map (inst "mux") warm_mux_bits @ warm_singles @ warm_adders
  | Mixed_concurrent -> mixed_pool
  | Datapath_hier -> [ datapath ]

(* ------------------------------------------------------------------ *)
(* Minimum delays                                                      *)
(* ------------------------------------------------------------------ *)

type floor = {
  fastest : float;  (** min over applicable candidates of the golden min delay, ps *)
  slowest : float;  (** max over candidates: every topology can meet it *)
}

type mins = (string * string, floor) Hashtbl.t
(** keyed by (instance name, technology name) *)

let slow_tech () =
  match Corners.of_string robust_corners with
  | Ok set ->
    let cs = Corners.to_list set in
    (List.nth cs (List.length cs - 1)).Corners.tech
  | Error e -> failwith ("smartbench: corner set: " ^ e)

(* Golden minimum delay of every applicable candidate, on a private
   engine that is dropped afterwards.  Robust requests place their
   targets against the slow corner, where every corner must be met. *)
let probe ?(db = Database.builtins ()) workload : mins =
  let engine = Engine.create ~workers:1 () in
  let table = Hashtbl.create 32 in
  let techs =
    if workload = Cold_mix then
      [ Smart.Tech.default; slow_tech () ]
    else [ Smart.Tech.default ]
  in
  List.iter
    (fun i ->
      List.iter
        (fun (tech : Smart.Tech.t) ->
          let req = Database.requirements i.bits in
          let delays =
            List.filter_map
              (fun (_, (info : Smart.Macro.info)) ->
                match
                  Engine.minimize_delay engine ~options:Smart.Sizer.default_options
                    tech info.Smart.Macro.netlist (Smart.Constraints.spec 1000.)
                with
                | Ok m -> Some m.Smart.Sizer.golden_min
                | Error _ -> None)
              (Database.build_all db ~kind:i.kind req)
          in
          if delays <> [] then
            Hashtbl.replace table
              (instance_name i, tech.Smart.Tech.name)
              {
                fastest = List.fold_left Float.min infinity delays;
                slowest = List.fold_left Float.max 0. delays;
              })
        techs)
    (instances workload);
  table

let floor_of (mins : mins) ?(tech = Smart.Tech.default) i =
  match Hashtbl.find_opt mins (instance_name i, tech.Smart.Tech.name) with
  | Some f -> f
  | None -> failwith ("smartbench: no minimum delay for " ^ instance_name i)

(* ------------------------------------------------------------------ *)
(* Lines                                                               *)
(* ------------------------------------------------------------------ *)

type t = { workload : name; seed : int; mins : mins; slow : Smart.Tech.t }

let create ~seed ~mins workload = { workload; seed; mins; slow = slow_tech () }

(* An independent stream per (seed, workload, cycle), so any index is
   reachable without replaying the stream before it. *)
let rng t salt cycle =
  let tag = Hashtbl.hash (name_to_string t.workload) in
  Rng.create ((t.seed * 1_000_003) + (tag * 7919) + (salt * 104_729) + cycle)

let advise_line ~id ?corners i target =
  let corners =
    match corners with
    | None -> ""
    | Some c -> Printf.sprintf {|,"corners":"%s"|} c
  in
  Printf.sprintf {|{"v":1,"id":"%s","op":"advise","kind":"%s","bits":%d,"delay":%.3f%s}|}
    id i.kind i.bits target corners

let id t index = Printf.sprintf "%s-%d" (name_to_string t.workload) index

(* Target jitter.  Round [r] of a slot (its cycle, block or pass) moves
   the factor by a golden-ratio step from a seeded phase within +-0.2%,
   so no two rounds of one slot ever share a target, while the work a
   request costs — steep near an instance's delay floor — and the width
   it earns move with the program rather than the seed. *)
let jitter t ~slot ~round f =
  let phase = Rng.float (rng t 8 slot) 1. in
  let golden = 0.5 *. (sqrt 5. -. 1.) in
  let u = Float.rem (phase +. (float_of_int round *. golden)) 1. in
  f *. (1. +. (0.002 *. ((2. *. u) -. 1.)))

let advise t ~index ?corners ~factor ~anchor i =
  {
    index;
    line = advise_line ~id:(id t index) ?corners i (factor *. anchor);
    expect = Advice;
    label =
      (match corners with
      | None -> instance_name i
      | Some c -> Printf.sprintf "%s[%s]" (instance_name i) c);
    repeat_of = None;
  }

let grid = [| 1.15; 1.2; 1.3; 1.4; 1.5 |]

type slot =
  | Plain of instance * float
  | Robust of instance * float
  | Error_slot of error_slot

let cold_cycle =
  let at j = grid.(j mod Array.length grid) in
  Array.of_list
    (List.mapi (fun j i -> Plain (i, at j)) cold_cheap
    @ List.mapi (fun j i -> Plain (i, at (2 * j))) cold_big
    @ List.mapi (fun j i -> Robust (i, at (j + 2))) cold_robust
    @ List.map (fun e -> Error_slot e) (Array.to_list cold_errors))

let cold_cycle_length = Array.length cold_cycle

let cold_request t index =
  let c = index / cold_cycle_length in
  let slots = cold_cycle in
  let order = Array.init (Array.length slots) Fun.id in
  Rng.shuffle (rng t 1 c) order;
  let j = order.(index mod cold_cycle_length) in
  let f = jitter t ~slot:j ~round:c in
  match slots.(j) with
  | Plain (i, factor) ->
    advise t ~index ~factor:(f factor) ~anchor:(floor_of t.mins i).fastest i
  | Robust (i, factor) ->
    advise t ~index ~corners:robust_corners ~factor:(f factor)
      ~anchor:(floor_of t.mins ~tech:t.slow i).fastest i
  | Error_slot Infeasible ->
    let i = infeasible_instance in
    {
      (advise t ~index ~factor:(f 0.3) ~anchor:(floor_of t.mins i).fastest i)
      with
      expect = Fails "infeasible-spec";
    }
  | Error_slot No_topology ->
    let i = no_topology_instance in
    {
      (advise t ~index ~factor:1. ~anchor:(f 100.) i) with
      expect = Fails "no-applicable-topology";
    }
  | Error_slot Malformed ->
    {
      index;
      line =
        Printf.sprintf {|{"v":1,"id":"%s","op":"advise","kind":"mux","bits":"eight"}|}
          (id t index);
      expect = Fails "bad-request";
      label = "malformed";
      repeat_of = None;
    }

(* A replay's line: the original with only its id changed. *)
let with_id line new_id =
  let prefix = {|{"v":1,"id":"|} in
  let pl = String.length prefix in
  let close = String.index_from line pl '"' in
  prefix ^ new_id ^ String.sub line close (String.length line - close)

(* warm-repeat: indices [0, working_set) are the working set, primed
   before timing; every later index replays one of them, a seeded
   permutation of the whole set per pass. *)
let warm_slots =
  List.concat_map
    (fun b -> Array.to_list (Array.map (fun f -> (inst "mux" b, f)) warm_mux_factors))
    warm_mux_bits
  @ List.concat_map
      (fun i -> Array.to_list (Array.map (fun f -> (i, f)) warm_single_factors))
      warm_singles
  @ List.map (fun i -> (i, 1.3)) warm_adders

let working_set = List.length warm_slots

let warm_request t index =
  let fresh k =
    let i, factor = List.nth warm_slots k in
    (* Against the slowest topology, so every candidate sizes and lands
       in the cache: a replay then needs no GP work at all. *)
    advise t ~index
      ~factor:(jitter t ~slot:k ~round:0 factor)
      ~anchor:(floor_of t.mins i).slowest i
  in
  if index < working_set then fresh index
  else
    let pass = (index / working_set) - 1 in
    let order = Array.init working_set Fun.id in
    Rng.shuffle (rng t 3 pass) order;
    let k = order.(index mod working_set) in
    let first = fresh k in
    {
      first with
      index;
      line = with_id first.line (id t index);
      repeat_of = Some k;
    }

(* mixed-concurrent: blocks of 16.  Block 0 holds two fresh requests per
   pool instance; every later block eight fresh ones and eight replays of
   fresh requests from earlier blocks — about half the traffic reads. *)
let mixed_block = 16

let mixed_pool_size = List.length mixed_pool
let mixed_fresh b = if b = 0 then mixed_block else mixed_pool_size

(* Block [b]'s slots in seeded order: fresh slot [k] (a pool position)
   or a replay (-1). *)
let mixed_slots t b =
  let slots =
    Array.init mixed_block (fun k -> if k < mixed_fresh b then k else -1)
  in
  Rng.shuffle (rng t 4 b) slots;
  slots

let mixed_fresh_request t ~index ~block k =
  let i = List.nth mixed_pool (k mod mixed_pool_size) in
  let factor =
    jitter t ~slot:k ~round:block grid.((k + block) mod Array.length grid)
  in
  advise t ~index ~factor ~anchor:(floor_of t.mins i).fastest i

let mixed_request t index =
  let b = index / mixed_block in
  match (mixed_slots t b).(index mod mixed_block) with
  | k when k >= 0 -> mixed_fresh_request t ~index ~block:b k
  | _ ->
    let pick = rng t 6 index in
    let b' = Rng.int pick b in
    let k = Rng.int pick (mixed_fresh b') in
    let first = mixed_fresh_request t ~index ~block:b' k in
    let pos = ref 0 in
    Array.iteri (fun j s -> if s = k then pos := j) (mixed_slots t b');
    {
      first with
      line = with_id first.line (id t index);
      repeat_of = Some ((b' * mixed_block) + !pos);
    }

let datapath_factors = [| 1.3; 1.45; 1.35; 1.5; 1.4 |]

(* The first round of targets is the same for every seed: moving a
   datapath target by 0.2% moves the hierarchical sizer's width by up to
   9% and its work with it, which the seed would otherwise decide. *)
let datapath_request t index =
  let factor =
    let n = Array.length datapath_factors in
    let f = datapath_factors.(index mod n) in
    if index < n then f else jitter t ~slot:(index mod n) ~round:(index / n) f
  in
  advise t ~index ~factor ~anchor:(floor_of t.mins datapath).fastest datapath

let request t index =
  match t.workload with
  | Cold_mix -> cold_request t index
  | Warm_repeat -> warm_request t index
  | Mixed_concurrent -> mixed_request t index
  | Datapath_hier -> datapath_request t index

(* The fixed prefix whose advice the quality metric [width_um] sums: one
   whole cycle, the working set, the first block, the first request.
   Every run completes it, so the figure is a deterministic function of
   the seed. *)
let quality_prefix = function
  | Cold_mix -> cold_cycle_length
  | Warm_repeat -> working_set
  | Mixed_concurrent -> mixed_block
  | Datapath_hier -> 1

(* The requests a timed pass serves in whole multiples of, so every run
   holds the same mix: a cycle, a replay pass over the working set, a
   block, one datapath request. *)
let unit = function
  | Cold_mix -> cold_cycle_length
  | Warm_repeat -> working_set
  | Mixed_concurrent -> mixed_block
  | Datapath_hier -> 1

(* Requests served before the timed window starts: the warm-repeat
   working set, and one cold-mix cycle, whose first solve of each kind
   runs slower than the later ones. *)
let primed = function
  | Warm_repeat -> working_set
  | Cold_mix -> cold_cycle_length
  | _ -> 0

(* Fewest requests a timed pass serves, rounded up to whole units: three
   cold-mix cycles and three datapath requests, whose latencies swing
   by a tenth from one request to the next on a shared host; one unit
   elsewhere. *)
let min_timed = function
  | Cold_mix -> 3 * cold_cycle_length
  | Datapath_hier -> 3
  | _ -> 1
