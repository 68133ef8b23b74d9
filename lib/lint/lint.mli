(** Static electrical-rule and constraint-coverage analysis.

    [Lint.run] evaluates every registered rule (see {!Rules.builtin})
    over a netlist and returns a waiver-resolved report.  The paper's
    constraint generator is specialised per circuit family; a netlist
    that silently violates its family's discipline produces a geometric
    program that is {e feasible but meaningless} — this analyzer is the
    mechanical replacement for the expert review that caught such
    topologies in the original flow.

    Findings a designer has judged acceptable are waived in the netlist
    itself ({!Smart_circuit.Netlist.Builder.waive}); waived diagnostics
    stay in the report but never gate.

    A crash inside one rule (exercised through the {!fault_site} fault
    injection site) degrades to a [lint/rule-crash] warning naming the
    rule: analysis is advisory, one broken rule must not take down a
    sizing run that Strict mode would otherwise admit. *)

type report = {
  netlist : string;
  diags : Report.diag list;  (** waiver-resolved, severity-sorted *)
  rules_run : int;
  crashed : (string * string) list;  (** (rule id, error) per crashed rule *)
}

val fault_site : string
(** ["lint.rule"] — fired once per rule evaluation. *)

val span : string
(** ["lint.run"] — the {!Smart_util.Tracepoint} span emitted per run. *)

val rules : unit -> Rules.rule list
val register : Rules.rule -> unit
(** Append a rule to the registry (replaces any rule with the same id)
    and bump {!generation}. *)

val generation : unit -> int
(** How many times {!register} has run in this process ([0]: the
    registry is {!Rules.builtin}).  With the rule ids it identifies the
    registry, so memoized reports ({!Smart_engine.Engine.prelude}) never
    outlive a rule replaced under the same id. *)

val run :
  ?tech:Smart_tech.Tech.t ->
  ?spec:Smart_constraints.Constraints.spec ->
  ?reductions:Smart_paths.Paths.reductions ->
  ?only:string list ->
  Smart_circuit.Netlist.t ->
  report
(** Evaluate the registered rules ([only]: just the named ids).
    Context defaults as in {!Rules.make_ctx}. *)

(** {1 Interpreting a report} *)

val errors : report -> Report.diag list
(** Unwaived [Error]-severity diagnostics — what gates Strict mode. *)

val warnings : report -> Report.diag list

val ok : report -> bool
(** No unwaived errors. *)

val gating : report -> (string * string * string) list
(** {!errors} as (rule, location, message) triples — the payload of
    {!Smart_util.Err.Lint_failed}. *)

val to_text : report -> string
val to_json : report -> string
