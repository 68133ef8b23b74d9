(* Corner bench: joint robust sizing over the fast/typ/slow corner set
   vs a typical-corner-only sizing.

   Protocol:
     1. find the macro's fastest achievable delay at the *slow* corner
        (the structurally worst one) and set the spec at 1.25x it — tight
        enough that corner margins matter, loose enough that a joint
        sizing exists;
     2. size at the typical corner only (the classic single-corner flow)
        and golden-verify that sizing at every corner — the slow corner
        misses, which is exactly why robust sizing exists;
     3. size jointly over all three corners (Smart_corners) and verify
        the one width assignment meets the spec at every corner;
     4. report the width premium robustness costs over the typ-only
        sizing, and time the robust loop with its per-corner golden
        verifies fanned across the engine pool vs run sequentially.

   Writes BENCH_corners.json {width_typ, width_robust, width_overhead,
   worst_corner_slack_ps, wall_verify_seq, wall_verify_par,
   verify_speedup, workers} for the perf trajectory. *)

module Smart = Smart_core.Smart
module Engine = Smart.Engine
module Corners = Smart.Corners
module Sizer = Smart.Sizer
module Sta = Smart.Sta

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let slowest set =
  List.fold_left
    (fun (worst : Corners.corner) (c : Corners.corner) ->
      if c.Corners.rc_scale > worst.Corners.rc_scale then c else worst)
    (List.hd (Corners.to_list set))
    (Corners.to_list set)

let golden_at (c : Corners.corner) nl sizing_fn =
  (Sta.analyze ~mode:Sta.Evaluate c.Corners.tech nl ~sizing:sizing_fn)
    .Sta.max_delay

let run ~fast () =
  Runner.heading "Smart_corners: robust sizing across process corners";
  let bits = if fast then 4 else 8 in
  let info = Smart.Mux.generate Smart.Mux.Strongly_mutexed ~n:bits in
  let nl = info.Smart.Macro.netlist in
  let set = Corners.default_set () in
  let corners = Corners.to_list set in
  let slow = slowest set in
  let typ = Corners.nominal set in
  let options = Sizer.default_options in
  match
    Sizer.minimize_delay_typed ~options slow.Corners.tech nl
      (Smart.Constraints.spec 1e6)
  with
  | Error e -> Printf.printf "  min-delay at slow corner failed: %s\n" (Smart.Error.to_string e)
  | Ok md -> (
    let target = 1.25 *. md.Sizer.golden_min in
    let spec = Smart.Constraints.spec target in
    Printf.printf
      "  %d-input mux, corners [%s]; slow-corner min %.1f ps, spec %.1f ps\n"
      bits (Corners.to_string set) md.Sizer.golden_min target;
    match Sizer.size_typed ~options typ.Corners.tech nl spec with
    | Error e -> Printf.printf "  typ-only sizing failed: %s\n" (Smart.Error.to_string e)
    | Ok typ_only -> (
      (* The single-corner flow's blind spot: its sizing golden-verified
         at the other corners. *)
      Printf.printf "  typ-only sizing (%.1f um) verified per corner:\n"
        typ_only.Sizer.total_width;
      let typ_misses_slow = ref false in
      List.iter
        (fun (c : Corners.corner) ->
          let d = golden_at c nl typ_only.Sizer.sizing_fn in
          if
            c.Corners.corner_name = slow.Corners.corner_name
            && d > target *. (1. +. options.Sizer.tolerance)
          then typ_misses_slow := true;
          Printf.printf "    %-8s %8.1f ps  slack %+7.1f ps\n"
            c.Corners.corner_name d (target -. d))
        corners;
      Runner.shape_check ~name:"typ-only sizing misses at the slow corner"
        !typ_misses_slow;

      (* Joint robust sizing, once with sequential per-corner verifies and
         once fanned across the engine pool (caches off so both runs do
         the full loop). *)
      let eng_seq = Engine.create ~workers:1 ~cache_capacity:0 () in
      let eng_par = Engine.create ~workers:(Runner.workers ()) ~cache_capacity:0 () in
      let res_seq, wall_seq =
        time (fun () -> Engine.size_robust eng_seq ~options set nl spec)
      in
      let res_par, wall_par =
        time (fun () -> Engine.size_robust eng_par ~options set nl spec)
      in
      match (res_seq, res_par) with
      | Error e, _ | _, Error e ->
        Printf.printf "  robust sizing failed: %s\n" (Smart.Error.to_string e)
      | Ok ro_seq, Ok ro ->
        let robust = ro.Sizer.robust in
        Printf.printf
          "  robust sizing: %.1f um, binding corner %s, %d iterations\n"
          robust.Sizer.total_width ro.Sizer.binding_corner
          robust.Sizer.iterations;
        List.iter
          (fun (r : Sizer.corner_report) ->
            Printf.printf "    %-8s %8.1f ps  slack %+7.1f ps\n"
              r.Sizer.corner_name r.Sizer.corner_delay r.Sizer.corner_slack)
          ro.Sizer.per_corner;
        let worst_slack =
          List.fold_left
            (fun w (r : Sizer.corner_report) ->
              Float.min w r.Sizer.corner_slack)
            infinity ro.Sizer.per_corner
        in
        let overhead =
          (robust.Sizer.total_width /. typ_only.Sizer.total_width) -. 1.
        in
        let speedup = if wall_par > 0. then wall_seq /. wall_par else 1. in
        Printf.printf
          "  width: typ-only %.1f um, robust %.1f um (overhead %.1f%%)\n"
          typ_only.Sizer.total_width robust.Sizer.total_width
          (100. *. overhead);
        Printf.printf
          "  wall: sequential verifies %.2f s, pooled (%d workers) %.2f s \
           (speedup %.2fx)\n"
          wall_seq (Engine.workers eng_par) wall_par speedup;
        if not (Engine.parallelism_available ()) then
          Printf.printf
            "  note: single hardware core -- the %d pooled verify workers\n\
            \  time-share one core, so verify_speedup~1.0 by design\n"
            (Engine.workers eng_par);
        Runner.shape_check ~name:"robust sizing meets spec at every corner"
          (List.for_all
             (fun (r : Sizer.corner_report) ->
               r.Sizer.corner_delay
               <= target *. (1. +. options.Sizer.tolerance))
             ro.Sizer.per_corner);
        Runner.shape_check ~name:"robust width >= typ-only width"
          (robust.Sizer.total_width >= typ_only.Sizer.total_width *. 0.999);
        Runner.shape_check
          ~name:"pooled and sequential verifies agree on the sizing"
          (ro.Sizer.binding_corner = ro_seq.Sizer.binding_corner
          && Float.abs
               (robust.Sizer.total_width
               -. ro_seq.Sizer.robust.Sizer.total_width)
             < 1e-6);
        Runner.write_json ~file:"BENCH_corners.json"
          [
            ("width_typ", typ_only.Sizer.total_width);
            ("width_robust", robust.Sizer.total_width);
            ("width_overhead", overhead);
            ("worst_corner_slack_ps", worst_slack);
            ("wall_verify_seq", wall_seq);
            ("wall_verify_par", wall_par);
            ("verify_speedup", speedup);
            ("workers", float_of_int (Engine.workers eng_par));
          ]))
