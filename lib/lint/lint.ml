module Err = Smart_util.Err
module Fault = Smart_util.Fault
module Tracepoint = Smart_util.Tracepoint
module Netlist = Smart_circuit.Netlist

type report = {
  netlist : string;
  diags : Report.diag list;
  rules_run : int;
  crashed : (string * string) list;
}

let fault_site = "lint.rule"
let span = "lint.run"

let registry : Rules.rule list ref = ref Rules.builtin

(* Bumped by every [register]: rules are closures, so ids alone cannot
   tell a replaced rule from the one it replaced. *)
let generation_counter = Atomic.make 0

let rules () = !registry
let generation () = Atomic.get generation_counter

let register (r : Rules.rule) =
  registry :=
    List.filter (fun (r' : Rules.rule) -> r'.Rules.id <> r.Rules.id) !registry
    @ [ r ];
  Atomic.incr generation_counter

let live sev (d : Report.diag) = d.Report.severity = sev && not d.Report.waived

let errors r = List.filter (live Report.Error) r.diags
let warnings r = List.filter (live Report.Warn) r.diags
let ok r = errors r = []

let gating r =
  List.map
    (fun (d : Report.diag) ->
      (d.Report.rule, Report.loc_name d.Report.loc, d.Report.message))
    (errors r)

let eval_rule ctx crashed (r : Rules.rule) =
  try
    (match Fault.fire fault_site with
    | Some (Fault.Raise msg) | Some (Fault.Error_result msg) ->
      Err.fail "injected fault in %s: %s" r.Rules.id msg
    | Some (Fault.Scale _) | None -> ());
    r.Rules.check ctx
  with
  | Err.Smart_error detail | Failure detail ->
    crashed := (r.Rules.id, detail) :: !crashed;
    [
      Report.diag ~rule:"lint/rule-crash" ~severity:Report.Warn
        ~loc:Report.Whole_netlist
        (Printf.sprintf "rule %s crashed (%s) — its findings are missing"
           r.Rules.id detail);
    ]
  | exn ->
    let detail = Printexc.to_string exn in
    crashed := (r.Rules.id, detail) :: !crashed;
    [
      Report.diag ~rule:"lint/rule-crash" ~severity:Report.Warn
        ~loc:Report.Whole_netlist
        (Printf.sprintf "rule %s crashed (%s) — its findings are missing"
           r.Rules.id detail);
    ]

let run ?tech ?spec ?reductions ?only nl =
  let attrs (r : report) =
    [
      ("netlist", Tracepoint.Str r.netlist);
      ("rules", Tracepoint.Int r.rules_run);
      ("errors", Tracepoint.Int (List.length (errors r)));
      ("warnings", Tracepoint.Int (List.length (warnings r)));
      ("crashed", Tracepoint.Int (List.length r.crashed));
    ]
  in
  Tracepoint.timed span ~attrs @@ fun () ->
  let selected =
    match only with
    | None -> !registry
    | Some ids ->
      List.iter
        (fun id ->
          if
            not
              (List.exists (fun (r : Rules.rule) -> r.Rules.id = id) !registry)
          then Err.fail "Lint.run: unknown rule id %s" id)
        ids;
      List.filter (fun (r : Rules.rule) -> List.mem r.Rules.id ids) !registry
  in
  let ctx = Rules.make_ctx ?tech ?spec ?reductions nl in
  let crashed = ref [] in
  let raw = List.concat_map (eval_rule ctx crashed) selected in
  let resolved =
    List.map
      (fun (d : Report.diag) ->
        {
          d with
          Report.waived =
            Netlist.waived nl ~rule:d.Report.rule
              ~loc:(Report.loc_name d.Report.loc);
        })
      raw
  in
  {
    netlist = nl.Netlist.name;
    diags = List.sort Report.compare_diag resolved;
    rules_run = List.length selected;
    crashed = List.rev !crashed;
  }

let to_text r = Report.list_to_text ~netlist:r.netlist r.diags
let to_json r = Report.list_to_json ~netlist:r.netlist r.diags
