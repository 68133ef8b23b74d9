(* Unit tests: Smart_lint — per-rule violating/passing fixtures, the
   generator cleanliness property, waiver resolution, Strict-mode gating
   (fail before any GP solve), and fault-injection degradation. *)

module Smart = Smart_core.Smart
module Lint = Smart_lint.Lint
module Rules = Smart_lint.Rules
module Report = Smart_lint.Report
module Gen = Smart_check.Gen
module Fault = Smart_util.Fault
module Tracepoint = Smart_util.Tracepoint
module Err = Smart_util.Err
module Cell = Smart_circuit.Cell
module Pdn = Smart_circuit.Pdn
module N = Smart_circuit.Netlist
module B = Smart_circuit.Netlist.Builder

let checkb msg = Alcotest.(check bool) msg
let checki msg = Alcotest.(check int) msg

let fires rule rep =
  List.exists (fun (d : Report.diag) -> d.Report.rule = rule) rep.Lint.diags

let count_severity sev rep =
  List.length
    (List.filter
       (fun (d : Report.diag) ->
         d.Report.severity = sev && not d.Report.waived)
       rep.Lint.diags)

let inv = Cell.inverter

(* ---------------- per-rule: violating fixtures fire ---------------- *)

let test_broken_variants_fire () =
  List.iter
    (fun (rule, nl) ->
      let rep = Lint.run nl in
      checkb (Printf.sprintf "%s fires on %s" rule nl.N.name) true
        (fires rule rep))
    (Gen.broken ())

let test_broken_covers_every_rule () =
  let covered = List.map fst (Gen.broken ()) in
  List.iter
    (fun (r : Rules.rule) ->
      checkb (Printf.sprintf "broken variant exists for %s" r.Rules.id) true
        (List.mem r.Rules.id covered))
    Rules.builtin

(* ---------------- per-rule: conforming twins are silent ------------- *)

(* A 3-inverter chain: the universally clean baseline. *)
let clean_chain () =
  let b = B.create "clean_chain" in
  let i = B.input b "in" in
  let w1 = B.wire b "w1" and w2 = B.wire b "w2" in
  let out = B.output b "out" in
  B.inst b ~name:"g0" ~cell:(inv ~p:"P0" ~n:"N0") ~inputs:[ ("a", i) ]
    ~out:w1 ();
  B.inst b ~name:"g1" ~cell:(inv ~p:"P1" ~n:"N1") ~inputs:[ ("a", w1) ]
    ~out:w2 ();
  B.inst b ~name:"g2" ~cell:(inv ~p:"P2" ~n:"N2") ~inputs:[ ("a", w2) ]
    ~out ();
  B.ext_load b out 5.;
  B.freeze b

let domino1 ?(footed = true) ?(keeper = true) ~tag () =
  Cell.Domino
    {
      gate_name = "dyn1";
      pull_down = Pdn.leaf ~pin:"a" ~label:(tag ^ "N");
      precharge = tag ^ "P";
      eval = (if footed then Some (tag ^ "F") else None);
      out_p = tag ^ "OP";
      out_n = tag ^ "ON";
      keeper;
    }

(* Provably complementary tri-state enables: silent for contention. *)
let twin_tristate () =
  let b = B.create "twin_tristate" in
  let in0 = B.input b "in0" and in1 = B.input b "in1" in
  let en = B.input b "en" in
  let enb = B.wire b "enb" in
  let bus = B.wire b "bus" in
  let out = B.output b "out" in
  B.inst b ~name:"eninv" ~cell:(inv ~p:"EP" ~n:"EN") ~inputs:[ ("a", en) ]
    ~out:enb ();
  B.inst b ~name:"t0"
    ~cell:(Cell.Tristate { p_label = "TP0"; n_label = "TN0" })
    ~inputs:[ ("d", in0); ("en", en) ]
    ~out:bus ();
  B.inst b ~name:"t1"
    ~cell:(Cell.Tristate { p_label = "TP1"; n_label = "TN1" })
    ~inputs:[ ("d", in1); ("en", enb) ]
    ~out:bus ();
  B.inst b ~name:"buf" ~cell:(inv ~p:"P1" ~n:"N1") ~inputs:[ ("a", bus) ]
    ~out ();
  B.ext_load b out 5.;
  B.freeze b

(* Provably complementary pass selects: silent for sneak-path. *)
let twin_sneak () =
  let b = B.create "twin_sneak" in
  let d0 = B.input b "d0" and d1 = B.input b "d1" in
  let s = B.input b "s" in
  let sb = B.wire b "sb" in
  let m = B.wire b "m" in
  let out = B.output b "out" in
  B.inst b ~name:"sinv" ~cell:(inv ~p:"SP" ~n:"SN") ~inputs:[ ("a", s) ]
    ~out:sb ();
  B.inst b ~name:"pg0"
    ~cell:(Cell.Passgate { style = Cell.Cmos_tgate; label = "PG0" })
    ~inputs:[ ("d", d0); ("s", s) ]
    ~out:m ();
  B.inst b ~name:"pg1"
    ~cell:(Cell.Passgate { style = Cell.Cmos_tgate; label = "PG1" })
    ~inputs:[ ("d", d1); ("s", sb) ]
    ~out:m ();
  B.inst b ~name:"buf" ~cell:(inv ~p:"P1" ~n:"N1") ~inputs:[ ("a", m) ]
    ~out ();
  B.ext_load b out 5.;
  B.freeze b

(* Footed dominos chained D1 -> D2: monotone and precharge-low, silent
   for both domino rules; keeper = true with three readers, silent for
   the keeper rule. *)
let twin_domino () =
  let b = B.create "twin_domino" in
  let i = B.input b "in" in
  let x = B.wire b "x" in
  B.inst b ~name:"d1" ~cell:(domino1 ~tag:"A" ()) ~inputs:[ ("a", i) ]
    ~out:x ();
  List.iter
    (fun k ->
      let out = B.output b (Printf.sprintf "out%d" k) in
      B.inst b
        ~name:(Printf.sprintf "d2_%d" k)
        ~cell:(domino1 ~footed:false ~tag:(Printf.sprintf "B%d" k) ())
        ~inputs:[ ("a", x) ] ~out ();
      B.ext_load b out 5.)
    [ 0; 1; 2 ];
  B.freeze b

(* A 3-hop restored transmission-gate chain: silent for pass-depth and
   vt-drop. *)
let twin_pass () =
  let b = B.create "twin_pass" in
  let d = B.input b "in" in
  let out = B.output b "out" in
  let last =
    List.fold_left
      (fun prev k ->
        let s = B.input b (Printf.sprintf "s%d" k) in
        let m = B.wire b (Printf.sprintf "m%d" k) in
        B.inst b
          ~name:(Printf.sprintf "pg%d" k)
          ~cell:
            (Cell.Passgate
               { style = Cell.Cmos_tgate; label = Printf.sprintf "PG%d" k })
          ~inputs:[ ("d", prev); ("s", s) ]
          ~out:m ();
        m)
      d [ 0; 1; 2 ]
  in
  B.inst b ~name:"restore" ~cell:(inv ~p:"P1" ~n:"N1")
    ~inputs:[ ("a", last) ] ~out ();
  B.ext_load b out 5.;
  B.freeze b

(* The dominance-broken fixture with the heavy reader slimmed to one
   inverter: the class still merges, the representative now dominates. *)
let twin_dominance () =
  let b = B.create "twin_dominance" in
  let i = B.input b "in" in
  let a = B.wire b "a" and c = B.wire b "c" in
  B.inst b ~name:"da" ~cell:(inv ~p:"P1" ~n:"N1") ~inputs:[ ("a", i) ]
    ~out:a ();
  B.inst b ~name:"dc" ~cell:(inv ~p:"P1" ~n:"N1") ~inputs:[ ("a", i) ]
    ~out:c ();
  List.iter
    (fun k ->
      let out = B.output b (Printf.sprintf "out%d" k) in
      B.inst b
        ~name:(Printf.sprintf "r%d" k)
        ~cell:
          (inv ~p:(Printf.sprintf "RP%d" k) ~n:(Printf.sprintf "RN%d" k))
        ~inputs:[ ("a", a) ] ~out ();
      B.ext_load b out 5.)
    [ 0; 1; 2 ];
  let out3 = B.output b "out3" in
  B.inst b ~name:"light" ~cell:(inv ~p:"LP" ~n:"LN") ~inputs:[ ("a", c) ]
    ~out:out3 ();
  B.ext_load b out3 5.;
  B.freeze b

let test_conforming_twins_silent () =
  let twins =
    [
      ("elec/comb-loop", clean_chain ());
      ("elec/undriven", clean_chain ());
      ("elec/no-reader", clean_chain ());
      ("elec/drive-fight", twin_tristate ());
      ("elec/tristate-contention", twin_tristate ());
      ("family/domino-monotone", twin_domino ());
      ("family/unfooted-input", twin_domino ());
      ("family/keeper", twin_domino ());
      ("family/pass-depth", twin_pass ());
      ("family/sneak-path", twin_sneak ());
      ("family/vt-drop", twin_pass ());
      ("reg/label-role", clean_chain ());
      ("reg/dominance", twin_dominance ());
      ("cover/arc", clean_chain ());
      ("cover/orphan-label", clean_chain ());
    ]
  in
  List.iter
    (fun (rule, nl) ->
      let rep = Lint.run nl in
      checkb
        (Printf.sprintf "%s silent on %s" rule nl.N.name)
        false (fires rule rep))
    twins

let test_clean_chain_fully_clean () =
  let rep = Lint.run (clean_chain ()) in
  checki "no diagnostics at all" 0 (List.length rep.Lint.diags);
  checkb "ok" true (Lint.ok rep)

(* ---------------- generator cleanliness property ---------------- *)

let test_generated_netlists_error_free () =
  for seed = 1 to 50 do
    let nl = Gen.netlist ~gates:30 ~seed () in
    let rep = Lint.run nl in
    checki
      (Printf.sprintf "seed %d: zero Error diagnostics" seed)
      0
      (count_severity Report.Error rep)
  done

(* ---------------- waivers ---------------- *)

let test_waiver_resolution () =
  (* The vt-drop violator, with the finding waived in-netlist. *)
  let b = B.create "waived_vt" in
  let i = B.input b "in" in
  let s0 = B.input b "s0" and s1 = B.input b "s1" in
  let x = B.wire b "x" and y = B.wire b "y" in
  let out = B.output b "out" in
  B.inst b ~name:"pn"
    ~cell:(Cell.Passgate { style = Cell.N_only; label = "PGN" })
    ~inputs:[ ("d", i); ("s", s0) ]
    ~out:x ();
  B.inst b ~name:"pp"
    ~cell:(Cell.Passgate { style = Cell.P_only; label = "PGP" })
    ~inputs:[ ("d", x); ("s", s1) ]
    ~out:y ();
  B.inst b ~name:"rcv" ~cell:(inv ~p:"P1" ~n:"N1") ~inputs:[ ("a", y) ]
    ~out ();
  B.ext_load b out 5.;
  B.waive b ~rule:"family/vt-drop" ~loc:"y" "restored downstream (test)";
  let nl = B.freeze b in
  let rep = Lint.run nl in
  let vt_diags =
    List.filter
      (fun (d : Report.diag) -> d.Report.rule = "family/vt-drop")
      rep.Lint.diags
  in
  checkb "vt-drop still reported" true (vt_diags <> []);
  checkb "every Error-severity vt-drop diag on y is waived" true
    (List.for_all
       (fun (d : Report.diag) ->
         d.Report.severity <> Report.Error
         || Report.loc_name d.Report.loc <> "y"
         || d.Report.waived)
       vt_diags);
  checkb "no unwaived error on the waived net" true
    (List.for_all
       (fun (d : Report.diag) -> Report.loc_name d.Report.loc <> "y")
       (Lint.errors rep))

(* ---------------- registry ---------------- *)

let test_only_selection () =
  let rep = Lint.run ~only:[ "elec/undriven" ] (clean_chain ()) in
  checki "one rule run" 1 rep.Lint.rules_run;
  checkb "unknown id rejected" true
    (match Lint.run ~only:[ "no/such-rule" ] (clean_chain ()) with
    | exception Err.Smart_error _ -> true
    | _ -> false)

(* ---------------- report rendering ---------------- *)

let contains_sub text sub =
  let n = String.length text and m = String.length sub in
  let rec go i = i + m <= n && (String.sub text i m = sub || go (i + 1)) in
  m = 0 || go 0

let test_report_rendering () =
  let nl = List.assoc "family/vt-drop" (Gen.broken ()) in
  let rep = Lint.run nl in
  let text = Lint.to_text rep in
  let json = Lint.to_json rep in
  checkb "text names the rule" true (contains_sub text "family/vt-drop");
  checkb "json names the rule" true (contains_sub json "family/vt-drop")

(* ---------------- Strict gating: fail before any GP solve ----------- *)

(* A database whose only entry emits a discipline-violating netlist. *)
let violating_db () =
  let db = Smart.Database.create () in
  Smart.Database.register db
    {
      Smart.Database.entry_name = "bad/vt-drop";
      kind = "bad";
      description = "intentionally violating (test)";
      applicable = (fun _ -> true);
      build =
        (fun (r : Smart.Database.requirements) ->
          let b = B.create "bad_vt" in
          let i = B.input b "in" in
          let s0 = B.input b "s0" and s1 = B.input b "s1" in
          let x = B.wire b "x" and y = B.wire b "y" in
          let out = B.output b "out" in
          B.inst b ~name:"pn"
            ~cell:(Cell.Passgate { style = Cell.N_only; label = "PGN" })
            ~inputs:[ ("d", i); ("s", s0) ]
            ~out:x ();
          B.inst b ~name:"pp"
            ~cell:(Cell.Passgate { style = Cell.P_only; label = "PGP" })
            ~inputs:[ ("d", x); ("s", s1) ]
            ~out:y ();
          B.inst b ~name:"rcv" ~cell:(inv ~p:"P1" ~n:"N1")
            ~inputs:[ ("a", y) ] ~out ();
          B.ext_load b out r.Smart.Database.ext_load;
          Smart.Macro.make ~kind:"bad" ~variant:"vt-drop" ~bits:r.bits
            (B.freeze b));
    };
  db

let spans = ref []

let with_span_capture f =
  spans := [];
  Tracepoint.set_sink
    (Some (fun (e : Tracepoint.event) -> spans := e.Tracepoint.span :: !spans));
  Fun.protect ~finally:(fun () -> Tracepoint.set_sink None) f

let test_strict_fails_before_gp () =
  let req =
    Smart.Request.make ~kind:"bad" ~bits:2 ~lint:`Strict
      ~engine:(Smart.Engine.create ~workers:1 ())
      ()
  in
  with_span_capture @@ fun () ->
  (match Smart.run ~db:(violating_db ()) req with
  | Error (Smart.Error.Lint_failed { netlist; diagnostics }) ->
    checkb "netlist named" true (netlist = "bad_vt");
    checkb "vt-drop in payload" true
      (List.exists (fun (r, _, _) -> r = "family/vt-drop") diagnostics)
  | Ok _ -> Alcotest.fail "Strict lint admitted a violating netlist"
  | Error e ->
    Alcotest.fail ("wrong error: " ^ Smart.Error.to_string e));
  checkb "lint.run span emitted" true (List.mem Lint.span !spans);
  checkb "no gp.solve span before the failure" false
    (List.mem "gp.solve" !spans)

let test_warn_mode_attaches_reports () =
  let req =
    Smart.Request.make ~kind:"bad" ~bits:2 ~lint:`Warn
      ~engine:(Smart.Engine.create ~workers:1 ())
      ()
  in
  match Smart.run ~db:(violating_db ()) req with
  | Ok advice ->
    checkb "lint reports attached" true (advice.Smart.lints <> []);
    checkb "violation reported but not gating" true
      (List.exists (fun rep -> not (Lint.ok rep)) advice.Smart.lints)
  | Error e -> Alcotest.fail ("warn mode failed: " ^ Smart.Error.to_string e)

let test_off_mode_no_reports () =
  let req =
    Smart.Request.make ~kind:"bad" ~bits:2 ~lint:`Off
      ~engine:(Smart.Engine.create ~workers:1 ())
      ()
  in
  match Smart.run ~db:(violating_db ()) req with
  | Ok advice -> checki "no lint reports" 0 (List.length advice.Smart.lints)
  | Error e -> Alcotest.fail ("off mode failed: " ^ Smart.Error.to_string e)

(* ---------------- fault injection ---------------- *)

let test_rule_crash_degrades () =
  Fault.reset ();
  let nl = clean_chain () in
  Fault.arm Lint.fault_site (Fault.Raise "injected (test)");
  let rep = Lint.run nl in
  Fault.reset ();
  checkb "crash recorded" true (rep.Lint.crashed <> []);
  checkb "lint/rule-crash warning present" true (fires "lint/rule-crash" rep);
  checkb "still ok (warning, not error)" true (Lint.ok rep);
  checki "all rules still accounted" (List.length (Lint.rules ()))
    rep.Lint.rules_run;
  (* Clean rerun: no sticky state. *)
  let rep' = Lint.run nl in
  checkb "rerun clean" true (rep'.Lint.crashed = [])

(* A strict request survives a crashed rule (the crash degrades to a
   warning, which does not gate) and the engine cache stays clean: the
   same request re-run without the fault returns the same best topology. *)
let test_strict_survives_rule_crash () =
  Fault.reset ();
  let engine = Smart.Engine.create ~workers:1 () in
  let req =
    Smart.Request.make ~kind:"mux" ~bits:2 ~lint:`Strict ~engine ()
  in
  Fault.arm Lint.fault_site (Fault.Raise "injected (test)");
  let first = Smart.run req in
  Fault.reset ();
  let second = Smart.run req in
  (match (first, second) with
  | Ok a, Ok b ->
    let best (ad : Smart.advice) =
      match ad.Smart.ranking.Smart.Explore.ranked with
      | c :: _ -> c.Smart.Explore.entry_name
      | [] -> ""
    in
    Alcotest.(check string) "same best topology after crash" (best b) (best a);
    (* The crashed prelude was not memoized: the clean rerun linted
       afresh. *)
    checkb "clean rerun: no crashed rules" true
      (List.for_all (fun (rep : Lint.report) -> rep.Lint.crashed = []) b.Smart.lints);
    checkb "clean rerun: no rule-crash diagnostic" false
      (List.exists (fires "lint/rule-crash") b.Smart.lints)
  | Error e, _ ->
    Alcotest.fail ("request aborted by rule crash: " ^ Smart.Error.to_string e)
  | _, Error e ->
    Alcotest.fail ("clean rerun failed: " ^ Smart.Error.to_string e));
  Fault.reset ()

(* ---------------- memoized preludes ---------------- *)

(* One unkept domino stage driving an external load: [family/keeper]
   names the instance, so its name and a waiver both show in the report. *)
let keeperless ?(name = "keeperless") ?(inst = "d1") ?waive () =
  let b = B.create name in
  let i = B.input b "in" in
  let out = B.output b "out" in
  B.inst b ~name:inst ~cell:(domino1 ~keeper:false ~tag:"A" ())
    ~inputs:[ ("a", i) ] ~out ();
  B.ext_load b out 5.;
  Option.iter (fun loc -> B.waive b ~rule:"family/keeper" ~loc "test") waive;
  B.freeze b

let prelude_lints engine nl =
  (Smart.Engine.prelude engine ~lint:`Warn ~options:Smart.Sizer.default_options
     Smart.Tech.default (Smart.Constraints.spec 150.) [ nl ])
    .Smart.Engine.lints

let direct_lints nl =
  [ Lint.run ~tech:Smart.Tech.default ~spec:(Smart.Constraints.spec 150.) nl ]

(* Structural twins share a sizing entry but never a lint report: the
   prelude key sees the netlist name, instance names and waivers. *)
let test_prelude_key_sees_identity () =
  let engine = Smart.Engine.create ~workers:1 () in
  let base = keeperless () in
  checkb "keeper rule fires on the base" true
    (fires "family/keeper" (Lint.run base));
  ignore (prelude_lints engine base);
  List.iter
    (fun (tag, nl) ->
      let got = prelude_lints engine nl in
      checkb (tag ^ ": own report") true (got = direct_lints nl);
      checkb (tag ^ ": differs from the base") true (got <> direct_lints base))
    [
      ("name", keeperless ~name:"renamed" ());
      ("instance names", keeperless ~inst:"stage0" ());
      ("waivers", keeperless ~waive:"d1" ());
    ];
  checkb "base still served its own report" true
    (prelude_lints engine base = direct_lints base)

(* Replacing a rule under an existing id must not let a prelude memoized
   under the old rule answer. *)
let test_register_invalidates_prelude () =
  let engine = Smart.Engine.create ~workers:1 () in
  let nl = clean_chain () in
  let original = List.hd (Lint.rules ()) in
  let marker = "replacement rule fired" in
  let marked lints =
    List.exists
      (fun (rep : Lint.report) ->
        List.exists (fun (d : Report.diag) -> d.Report.message = marker) rep.Lint.diags)
      lints
  in
  checkb "before: original rule" false (marked (prelude_lints engine nl));
  Fun.protect
    ~finally:(fun () -> Lint.register original)
    (fun () ->
      Lint.register
        {
          original with
          Rules.check =
            (fun _ ->
              [
                Report.diag ~rule:original.Rules.id ~severity:Report.Info
                  ~loc:Report.Whole_netlist marker;
              ]);
        };
      checkb "after register: replacement rule" true
        (marked (prelude_lints engine nl)));
  checkb "after restore: original rule again" false
    (marked (prelude_lints engine nl))

let () =
  Alcotest.run "lint"
    [
      ( "rules",
        [
          Alcotest.test_case "broken variants fire" `Quick
            test_broken_variants_fire;
          Alcotest.test_case "broken covers every rule" `Quick
            test_broken_covers_every_rule;
          Alcotest.test_case "conforming twins silent" `Quick
            test_conforming_twins_silent;
          Alcotest.test_case "clean chain fully clean" `Quick
            test_clean_chain_fully_clean;
        ] );
      ( "generator",
        [
          Alcotest.test_case "50 seeds error-free" `Slow
            test_generated_netlists_error_free;
        ] );
      ( "waivers",
        [ Alcotest.test_case "waiver resolution" `Quick test_waiver_resolution ]
      );
      ( "registry",
        [ Alcotest.test_case "only selection" `Quick test_only_selection ] );
      ( "report",
        [ Alcotest.test_case "rendering" `Quick test_report_rendering ] );
      ( "strict",
        [
          Alcotest.test_case "fails before GP solve" `Quick
            test_strict_fails_before_gp;
          Alcotest.test_case "warn attaches reports" `Quick
            test_warn_mode_attaches_reports;
          Alcotest.test_case "off produces no reports" `Quick
            test_off_mode_no_reports;
        ] );
      ( "faults",
        [
          Alcotest.test_case "rule crash degrades" `Quick
            test_rule_crash_degrades;
          Alcotest.test_case "strict survives crash, cache clean" `Quick
            test_strict_survives_rule_crash;
        ] );
      ( "prelude",
        [
          Alcotest.test_case "key sees name, instances, waivers" `Quick
            test_prelude_key_sees_identity;
          Alcotest.test_case "register invalidates" `Quick
            test_register_invalidates_prelude;
        ] );
    ]
