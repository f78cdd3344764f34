"""One goal through bmdl's public pipeline, and the recheck of its output.

execute() is the timed region: the same public calls the CLI verbs make
(cli._cmd_prove and cli._cmd_consistent), ending in the serialised report.
It looks every function up on its module at call time, so that spans
installed by tracing.py see the calls.  recheck() runs outside the timed
region and checks the report the way a user would with check-proof and
check-model.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass

from bmdl import consistency, countermodel, kernel, parser, search, semantics
from bmdl.formula import BOT, Box, Sequent

from workloads import Goal

FALSUM = Sequent((), (BOT,))


def execute(goal: Goal) -> str:
    """Decide the goal and return its JSON report, as the CLI would print it."""
    budget = search.Budget(search.DEFAULT_BUDGET)
    if goal.verb == "prove":
        target = parser.parse_sequent(goal.text)
        res = search.prove(target, budget)
        out = {
            "sequent": parser.print_sequent(target),
            "assumptions": [],
            "derivable": res.accepted,
            "steps": budget.used,
        }
        if res.accepted:
            kernel.check_derivation(res.derivation)
            out["derivation"] = kernel.derivation_to_json(res.derivation)
        else:
            out["countermodel"] = countermodel.result_to_json(countermodel.build(target, budget))
    else:
        problem = parser.parse_problem(goal.text)
        res = consistency.check_consistency(problem.assumptions, budget)
        out = {
            "assumptions": [parser.print_formula(a) for a in problem.assumptions],
            "consistent": res.consistent,
            "steps": res.steps_used,
        }
        if res.consistent:
            out["countermodel"] = countermodel.result_to_json(res.countermodel)
        else:
            kernel.check_derivation(res.witness, consistency.assumption_sequents(problem.assumptions))
            out["witness"] = kernel.derivation_to_json(res.witness)
    return json.dumps(out, ensure_ascii=False)


@dataclass(frozen=True)
class Check:
    wrong_verdict: bool
    bad_certificate: bool
    worlds: int  # worlds of the emitted countermodel, 0 if none
    nodes: int  # nodes of the emitted derivation, 0 if none
    detail: str


def _nodes(tree: dict) -> int:
    count, todo = 0, [tree]
    while todo:
        count += 1
        todo.extend(todo.pop()["children"])
    return count


def recheck(goal: Goal, report: str) -> Check:
    """Check a report against the goal: its verdict against the known answer
    and its certificate from the JSON alone."""
    data = json.loads(report)
    if goal.verb == "prove":
        target, assumptions = parser.parse_sequent(goal.text), ()
        verdict = data["derivable"]
        proof = data.get("derivation") if verdict else None
    else:
        target, assumptions = FALSUM, parser.parse_problem(goal.text).assumptions
        verdict = data["consistent"]
        proof = None if verdict else data.get("witness")
    wrong = goal.expect is not None and verdict != goal.expect
    try:
        if proof is not None:
            d = kernel.derivation_from_json(proof)
            if Counter(d.conclusion.ante) != Counter(target.ante) or Counter(d.conclusion.succ) != Counter(
                target.succ
            ):
                return Check(wrong, True, 0, 0, "derivation proves another sequent")
            kernel.check_derivation(d, consistency.assumption_sequents(assumptions))
            return Check(wrong, False, 0, _nodes(proof), "")
        cm = data["countermodel"]
        model = countermodel.model_of_json(cm)
        violations = semantics.validate_frame(model)
        if violations:
            return Check(wrong, True, 0, 0, f"frame: {violations[0]}")
        root = cm["root"]
        if not semantics.falsifies(model, root, target):
            return Check(wrong, True, 0, 0, "the goal holds at the root world")
        if not all(semantics.holds(model, root, Box(a)) for a in assumptions):
            return Check(wrong, True, 0, 0, "a boxed assumption fails at the root world")
        return Check(wrong, False, len(model.worlds), 0, "")
    except (KeyError, TypeError, ValueError) as e:  # DerivationError and ParseError are ValueErrors
        return Check(wrong, True, 0, 0, f"{type(e).__name__}: {e}")
