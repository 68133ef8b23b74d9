(* Standalone layer probes for the traced run.

   Layers that emit no span of their own are timed by calling their
   public functions from here, on the inputs of a request the traced
   pass served: the wire codec, the database build, the interval
   precheck that [Smart.run] repeats on every request, path extraction,
   constraint generation, the GP compile and the hierarchical plan.
   Calls that take microseconds are repeated and their median kept. *)

module Smart = Smart_core.Smart
module Engine = Smart.Engine
module Wire = Smart_serve.Wire

type t = {
  decode_us : float;
  encode_us : float;
  db_build_ms : float;
  db_candidates : int;
  precheck_ms : float;
  certificates : int;
  winner : winner option;  (** absent for error responses *)
}

and winner = {
  paths_ms : float;
  paths : int;
  classes : int;
  generate_ms : float;
  inequalities : int;
  variables : int;
  compile_ms : float;
  hier_plan : (float * int * int) option;
      (** plan ms, classes, partitions — when [`Auto] engages *)
  sizing_hit_us : float option;
      (** a memory-hit [Engine.size] on the daemon's engine (plain
          requests whose entry is still resident) *)
}

let now = Unix.gettimeofday

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* Linear-interpolation quantile (the usual "type 7" estimator); 0 on
   no samples. *)
let quantile q = function
  | [] -> 0.
  | l ->
    let a = Array.of_list l in
    Array.sort compare a;
    let n = Array.length a in
    let h = q *. float_of_int (n - 1) in
    let lo = truncate h in
    let hi = min (n - 1) (lo + 1) in
    a.(lo) +. ((h -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median l = quantile 0.5 l

let repeat n f = median (List.init n (fun _ -> snd (timed f)))

let probe ~db ~engine ~line ~response =
  match Result.bind (Wire.Request.of_line line) Wire.Request.elaborate with
  | Error _ -> None
  | Ok (req : Smart.Request.t) ->
    let decode_us =
      1e6
      *. repeat 21 (fun () ->
             ignore (Result.bind (Wire.Request.of_line line) Wire.Request.elaborate))
    in
    let resp = Wire.Response.of_line response in
    let encode_us =
      match resp with
      | Ok r -> 1e6 *. repeat 21 (fun () -> ignore (Wire.Response.to_line r))
      | Error _ -> 0.
    in
    let kind = req.Smart.Request.kind and rq = req.Smart.Request.requirements in
    let built, db_s =
      timed (fun () -> Smart.Database.build_all db ~kind rq)
    in
    let options = req.Smart.Request.options in
    let spec = req.Smart.Request.spec in
    let tech =
      match req.Smart.Request.corners with
      | Some set -> (Smart.Corners.nominal set).Smart.Corners.tech
      | None -> req.Smart.Request.tech
    in
    let generate nl =
      Smart.Constraints.generate ~reductions:options.Smart.Sizer.reductions
        ~objective:options.Smart.Sizer.objective tech nl spec
    in
    (* The precheck as [Smart.run] performs it: generate and interval-
       analyze every candidate's program. *)
    let certs, precheck_s =
      timed (fun () ->
          List.map
            (fun (_, (info : Smart.Macro.info)) ->
              Smart.Absint.infeasibility
                ~options:
                  (Smart.Absint.sizer_options
                     ~robust:(req.Smart.Request.corners <> None))
                ~target_ps:spec.Smart.Constraints.target_delay
                (generate info.Smart.Macro.netlist).Smart.Constraints.problem)
            built)
    in
    let winner =
      match resp with
      | Ok { Wire.Response.payload = Wire.Response.Advice adv; _ } -> (
        match Smart.Database.find db adv.Wire.Advice.winner with
        | None -> None
        | Some entry ->
          let nl = (entry.Smart.Database.build rq).Smart.Macro.netlist in
          let (paths, stats), paths_s =
            timed (fun () ->
                Smart.Paths.extract ~reductions:options.Smart.Sizer.reductions nl)
          in
          let gen, gen_s = timed (fun () -> generate nl) in
          let problem = gen.Smart.Constraints.problem in
          let _, compile_s =
            timed (fun () ->
                Smart.Gp.prepare ~structure:options.Smart.Sizer.gp_structure problem)
          in
          let hier_engaged = Smart.Hier.engages `Auto nl in
          let hier_plan =
            if hier_engaged then
              let plan, s = timed (fun () -> Smart.Hier.plan nl) in
              Some (1e3 *. s, plan.Smart.Hier.classes, plan.Smart.Hier.partitions)
            else None
          in
          let sizing_hit_us =
            if hier_engaged || req.Smart.Request.corners <> None then None
            else if
              Engine.prefetch engine ~options tech nl spec
            then begin
              let before = Engine.cache_stats engine in
              let _, s = timed (fun () -> Engine.size engine ~options tech nl spec) in
              let after = Engine.cache_stats engine in
              if after.Engine.hits = before.Engine.hits + 1 then Some (1e6 *. s)
              else None
            end
            else None
          in
          Some
            {
              paths_ms = 1e3 *. paths_s;
              paths = List.length paths;
              classes = stats.Smart.Paths.class_count;
              generate_ms = 1e3 *. gen_s;
              inequalities = Smart.Gp_problem.inequality_count problem;
              variables = Smart.Gp_problem.variable_count problem;
              compile_ms = 1e3 *. compile_s;
              hier_plan;
              sizing_hit_us;
            })
      | _ -> None
    in
    Some
      {
        decode_us;
        encode_us;
        db_build_ms = 1e3 *. db_s;
        db_candidates = List.length built;
        precheck_ms = 1e3 *. precheck_s;
        certificates = List.length (List.filter Option.is_some certs);
        winner;
      }
