"""Command line front end.

Verbs: prove, countermodel, consistent, check-model, check-proof, corpus.
Results go to stdout as JSON (--pretty to indent), diagnostics to stderr.

Each verb has exactly one implementation, a function from loaded inputs to
an exit code and a report:

  decide_goal         prove and countermodel
  decide_consistency  consistent
  check_model         check-model
  check_proof         check-proof

The _cmd_* handlers only read their arguments, call the function and emit
the report.  The corpus runner (bmdl.corpus) replays each manifest entry
through the same function and compares the verdict in the report with the
entry's expectation.  It exits 1 when some entry failed on its verdict or a
check, else 3 when some entry ran out of budget, else 0.

Exit codes: 0 for an affirmative answer; 1 for a negative answer with its
certificate in the report, and for nothing else; 2 for usage or input
errors; 3 when the search budget ran out before an answer was reached.
Exit 2 also reports a certificate that failed its own check (a
countermodel that did not certify, or a derivation the kernel rejected):
that is an internal fault, never a verdict, and worth reporting as a bug.
The verbs that search take their budget from --budget, else from the
MDL_BUDGET environment variable, else DEFAULT_BUDGET; either must be a
positive integer.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path
from typing import Iterable, Optional, Union

from .consistency import (
    FALSUM_SEQUENT,
    assumption_sequents,
    check_consistency,
    discharge,
    reduction_sequent,
)
from .countermodel import (
    Claim,
    CountermodelError,
    certify,
    claim_of_json,
    model_of_json,
    result_to_json,
    truth_lemma_audit,
)
from .formula import Formula, Sequent
from .kernel import (
    Derivation,
    DerivationError,
    check_derivation,
    derivation_from_json,
    derivation_to_json,
    same_sequent,
)
from .parser import (
    ParseError,
    parse_formula,
    parse_problem,
    parse_sequent,
    print_formula,
    print_sequent,
    read_sequent_file,
)
from .search import Budget, BudgetExceeded, DEFAULT_BUDGET
from .semantics import MModel, falsifies, holds, validate_frame

DEFAULT_CORPUS = Path("corpus")

EXIT_YES = 0
EXIT_NO = 1
EXIT_USAGE = 2
EXIT_INCONCLUSIVE = 3


def _positive_budget(text: str) -> int:
    """A step budget read from text: a positive integer."""
    import argparse  # here and in the parser alone: library callers never load it

    try:
        value = int(text)
        if value > 0:
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")


def _budget(args) -> int:
    """The step budget of a verb that searches: --budget, else MDL_BUDGET,
    else DEFAULT_BUDGET.  A bad MDL_BUDGET is a usage error."""
    if args.budget is not None:
        return args.budget
    raw = os.environ.get("MDL_BUDGET")
    if raw is None:
        return DEFAULT_BUDGET
    import argparse

    try:
        return _positive_budget(raw)
    except argparse.ArgumentTypeError as e:
        _note(f"bmdl: MDL_BUDGET {e}")
        raise SystemExit(EXIT_USAGE)


def _emit(args, code: int, report: dict) -> int:
    json.dump(report, sys.stdout, indent=2 if args.pretty else None, ensure_ascii=False)
    sys.stdout.write("\n")
    return code


def _note(msg: str) -> None:
    print(msg, file=sys.stderr)


def _load_goal(args) -> tuple[tuple[Formula, ...], Optional[Sequent]]:
    """Resolve a verb target into (assumptions, goal sequent).

    The target may be a problem file (.mdl or keyword-led), a sequent file,
    or literal sequent text; --assume formulas are appended either way, and
    duplicates merged (see _merged)."""
    extra = tuple(parse_formula(t) for t in args.assume or [])
    text = args.target
    path = Path(text)
    if _is_file(path):
        content = path.read_text()
        if path.suffix == ".mdl" or _looks_like_problem(content):
            prob = parse_problem(content)
            return _merged(prob.assumptions + extra), prob.goal
        return _merged(extra), read_sequent_file(path)
    return _merged(extra), parse_sequent(text)


def _merged(assumptions: tuple[Formula, ...]) -> tuple[Formula, ...]:
    """Each formula once, where it first occurs, as parse_problem merges
    the assume lines of a file."""
    return tuple(dict.fromkeys(assumptions))


def _is_file(path: Path) -> bool:
    """Path.is_file, except that a name the OS refuses to look up (too long
    for a file name, as literal sequent text can be) is no file."""
    try:
        return path.is_file()
    except OSError:
        return False


def _looks_like_problem(content: str) -> bool:
    for raw in content.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head = line.split(None, 1)[0]
        return head in ("assume", "goal", "mode")
    return False


def decide_goal(
    assumptions: tuple[Formula, ...],
    goal: Sequent,
    budget: Union[int, Budget],
    *,
    affirm_derivable: bool = True,
    unicode: bool = False,
) -> tuple[int, dict]:
    """prove (affirm_derivable) and countermodel: certify the goal with the
    assumptions boxed on its left.  The derivation is kernel checked, for
    prove after discharging the assumptions its proof uses, the only ones
    it cites; for countermodel it concludes the whole reduction sequent.
    The countermodel comes certified.  Yes (exit 0) when the verdict is the
    one the verb asks for."""
    hypotheses = len(assumptions) if affirm_derivable else 0
    res, cm = certify(reduction_sequent(assumptions, goal), budget, hypotheses=hypotheses)
    report = {
        "sequent": print_sequent(goal, unicode),
        "assumptions": [print_formula(a, unicode) for a in assumptions],
        "derivable": res.accepted,
        "steps": res.steps_used,
    }
    if res.accepted:
        d, assumed = res.derivation, ()
        if affirm_derivable:
            d, assumed = discharge(d, assumptions, goal), assumption_sequents(assumptions)
        check_derivation(d, assumed)
        report["derivation"] = derivation_to_json(d)
    else:
        report["countermodel"] = result_to_json(cm)
    return (EXIT_YES if res.accepted == affirm_derivable else EXIT_NO), report


def decide_consistency(
    assumptions: tuple[Formula, ...],
    budget: Union[int, Budget],
    *,
    unicode: bool = False,
) -> tuple[int, dict]:
    """consistent: decide outer consistency.  An inconsistency witness is
    kernel checked against the assumptions; a consistent set comes with a
    certified countermodel."""
    res = check_consistency(assumptions, budget)
    report = {
        "assumptions": [print_formula(a, unicode) for a in assumptions],
        "consistent": res.consistent,
        "steps": res.steps_used,
    }
    if not res.consistent:
        check_derivation(res.witness, assumption_sequents(assumptions))
        report["witness"] = derivation_to_json(res.witness)
        return EXIT_NO, report
    report["countermodel"] = result_to_json(res.countermodel)
    return EXIT_YES, report


def check_model(
    model: MModel,
    facts: Iterable[tuple[str, Formula]],
    unicode: bool = False,
    claim: Optional[Claim] = None,
) -> tuple[int, dict]:
    """check-model: validate the frame conditions and evaluate each
    (world, formula) fact.  Given a countermodel report's claim, also audit
    every world's label against the model and check that the report's goal
    fails at its root: the checks that certified the model when it was
    built.  Yes when the frame is valid, every fact holds and the claim, if
    any, checks."""
    violations = validate_frame(model)
    cache: dict = {}
    evaluated = [
        {"world": w, "formula": print_formula(f, unicode), "holds": holds(model, w, f, cache)} for w, f in facts
    ]
    report = {
        "valid": not violations,
        "worlds": len(model.worlds),
        "violations": [str(v) for v in violations],
    }
    if evaluated:
        report["facts"] = evaluated
    ok = not violations and all(fact["holds"] for fact in evaluated)
    if claim is not None:
        report["audit"] = truth_lemma_audit(model, claim.labels, cache, unicode)
        report["goal_fails_at_root"] = falsifies(model, claim.root, claim.goal, cache)
        ok = ok and not report["audit"] and report["goal_fails_at_root"]
    return (EXIT_YES if ok else EXIT_NO), report


def check_proof(
    derivation: Derivation,
    assumed: tuple[Sequent, ...],
    unicode: bool = False,
    claim: Optional[Sequent] = None,
) -> tuple[int, dict]:
    """check-proof: run the kernel over a derivation that may use the
    assumed sequents as Assumption leaves.  Given a report's claim, the
    derivation must also conclude it, up to the order of formulas.  Yes
    when it checks; no with the reason otherwise."""
    report = {
        "conclusion": print_sequent(derivation.conclusion, unicode),
        "assumptions": [print_sequent(s, unicode) for s in assumed],
    }
    if claim is not None and not same_sequent(derivation.conclusion, claim):
        report["checks"] = False
        report["error"] = f"the derivation concludes {report['conclusion']}, not {print_sequent(claim, unicode)}"
        return EXIT_NO, report
    try:
        check_derivation(derivation, assumed)
    except DerivationError as e:
        report["checks"] = False
        report["error"] = str(e)
        return EXIT_NO, report
    report["checks"] = True
    report["rules"] = {
        r.value: n for r, n in sorted(derivation.rules_used().items(), key=lambda kv: kv[0].value)
    }
    return EXIT_YES, report


def _proof_claim_of_json(report: dict) -> tuple[Derivation, Sequent, tuple[Sequent, ...]]:
    """The derivation a prove, countermodel or consistent report carries,
    the sequent it must conclude, and the Assumption leaves it may use, as
    the verb checked it: a prove report's derivation concludes its sequent
    from its assumptions; a countermodel report's concludes the reduction
    sequent, the assumptions boxed on the left, from none; a consistent
    report's witness concludes |- false from its assumptions.  A report of
    the wrong shape raises ValueError."""
    texts = report.get("assumptions", [])
    if not (isinstance(texts, list) and all(isinstance(a, str) for a in texts)):
        raise ValueError('malformed report: "assumptions" must be a list of formulas')
    assumptions = tuple(parse_formula(a) for a in texts)
    leaves = assumption_sequents(assumptions)
    if "derivation" not in report:
        return derivation_from_json(report["witness"]), FALSUM_SEQUENT, leaves
    if not isinstance(report.get("sequent"), str):
        raise ValueError('malformed report: "sequent" must be a sequent')
    derivation, goal = derivation_from_json(report["derivation"]), parse_sequent(report["sequent"])
    reduction = reduction_sequent(assumptions, goal)
    if assumptions and same_sequent(derivation.conclusion, reduction):
        return derivation, reduction, ()
    return derivation, goal, leaves


def _cmd_goal(args) -> int:
    assumptions, goal = _load_goal(args)
    if goal is None:
        _note("bmdl: the target has no goal sequent" + (" to prove" if args.affirm_derivable else ""))
        return EXIT_USAGE
    return _emit(
        args,
        *decide_goal(
            assumptions,
            goal,
            Budget(_budget(args)),
            affirm_derivable=args.affirm_derivable,
            unicode=args.unicode,
        ),
    )


def _cmd_consistent(args) -> int:
    if not args.target and not args.assume:
        _note("bmdl: nothing to check; give a problem file or --assume formulas")
        return EXIT_USAGE
    assumptions = tuple(parse_formula(t) for t in args.assume or [])
    if args.target:
        path = Path(args.target)
        if not _is_file(path):
            _note(f"bmdl: no such file: {args.target}")
            return EXIT_USAGE
        prob = parse_problem(path.read_text())
        assumptions = prob.assumptions + assumptions
    return _emit(args, *decide_consistency(_merged(assumptions), Budget(_budget(args)), unicode=args.unicode))


def _cmd_check_model(args) -> int:
    data = json.loads(Path(args.file).read_text())
    model = model_of_json(data, close_rt=args.close_rt)
    claim = claim_of_json(data, model)
    facts = []
    for spec in args.holds or []:
        world, sep, text = spec.partition("::")
        if not sep:
            _note(f"bmdl: --holds wants WORLD::FORMULA, got {spec!r}")
            return EXIT_USAGE
        facts.append((world, parse_formula(text)))
    return _emit(args, *check_model(model, facts, unicode=args.unicode, claim=claim))


def _cmd_check_proof(args) -> int:
    data = json.loads(Path(args.file).read_text())
    assumed = tuple(parse_sequent(t) for t in args.assume or [])
    if not (isinstance(data, dict) and ("derivation" in data or "witness" in data)):
        return _emit(args, *check_proof(derivation_from_json(data), assumed, unicode=args.unicode))
    derivation, claim, leaves = _proof_claim_of_json(data)
    return _emit(args, *check_proof(derivation, assumed + leaves, unicode=args.unicode, claim=claim))


def _cmd_corpus(args) -> int:
    from .corpus import run_corpus  # imported here: bmdl.corpus imports this module

    report = run_corpus(args.root, budget=_budget(args))
    failed = [r for r in report.results if not r.ok]
    for r in failed:
        _note(f"bmdl: corpus entry {r.entry.file} failed: {r.detail}")
    code = EXIT_YES
    if failed:  # a verdict or a check that failed outranks a budget that ran out
        code = EXIT_INCONCLUSIVE if all(r.exhausted for r in failed) else EXIT_NO
    return _emit(args, code, report.to_json())


def _build_parser() -> argparse.ArgumentParser:
    import argparse

    top = argparse.ArgumentParser(
        prog="bmdl",
        description="Decide derivability, consistency and countermodels for a dyadic deontic logic over S4.",
    )
    sub = top.add_subparsers(dest="verb", required=True)

    out_flags = argparse.ArgumentParser(add_help=False)
    out_flags.add_argument("--pretty", action="store_true", help="indent JSON output")
    out_flags.add_argument(
        "--unicode", action="store_true", help="use logical symbols in display strings"
    )

    search_flags = argparse.ArgumentParser(add_help=False)
    search_flags.add_argument(
        "--budget",
        type=_positive_budget,
        help=f"search step budget (default: MDL_BUDGET, else {DEFAULT_BUDGET})",
    )

    p = sub.add_parser(
        "prove",
        parents=[out_flags, search_flags],
        help="decide a sequent; print a checked derivation or a countermodel",
    )
    p.add_argument("target", help="sequent text, .seq file, or problem file")
    p.add_argument("--assume", action="append", metavar="FORMULA", help="extra assumption")
    p.set_defaults(fn=_cmd_goal, affirm_derivable=True)

    p = sub.add_parser(
        "countermodel",
        parents=[out_flags, search_flags],
        help="build a certified countermodel for an underivable sequent",
    )
    p.add_argument("target", help="sequent text, .seq file, or problem file")
    p.add_argument("--assume", action="append", metavar="FORMULA", help="extra assumption")
    p.set_defaults(fn=_cmd_goal, affirm_derivable=False)

    p = sub.add_parser(
        "consistent",
        parents=[out_flags, search_flags],
        help="decide outer consistency of an assumption set",
    )
    p.add_argument("target", nargs="?", help="problem file with assume lines")
    p.add_argument("--assume", action="append", metavar="FORMULA", help="extra assumption")
    p.set_defaults(fn=_cmd_consistent)

    p = sub.add_parser(
        "check-model",
        parents=[out_flags],
        help="validate a model file against the frame conditions",
    )
    p.add_argument("file", help="model .json, or a prove, countermodel or consistent report")
    p.add_argument("--close-rt", action="store_true", help="close the relation reflexively and transitively first")
    p.add_argument(
        "--holds", action="append", metavar="WORLD::FORMULA", help="also evaluate a formula at a world"
    )
    p.set_defaults(fn=_cmd_check_model)

    p = sub.add_parser(
        "check-proof",
        parents=[out_flags],
        help="run the kernel over a derivation file",
    )
    p.add_argument("file", help="derivation .json, or a prove, countermodel or consistent report")
    p.add_argument("--assume", action="append", metavar="SEQUENT", help="allowed Assumption leaf")
    p.set_defaults(fn=_cmd_check_proof)

    p = sub.add_parser(
        "corpus",
        parents=[out_flags, search_flags],
        help="replay a corpus directory against its manifest",
    )
    p.add_argument("root", nargs="?", default=str(DEFAULT_CORPUS), help="corpus directory")
    p.set_defaults(fn=_cmd_corpus)

    return top


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ParseError as e:
        _note(f"bmdl: parse error: {e}")
        return EXIT_USAGE
    except BudgetExceeded as e:
        _note(f"bmdl: {e}")
        return _emit(args, EXIT_INCONCLUSIVE, {"inconclusive": True, "budget": e.limit})
    except OSError as e:  # a missing file, a directory, a device that fails to read
        _note(f"bmdl: {e}")
        return EXIT_USAGE
    except json.JSONDecodeError as e:
        _note(f"bmdl: bad JSON input: {e}")
        return EXIT_USAGE
    except (CountermodelError, DerivationError, ValueError) as e:
        _note(f"bmdl: {e}")
        return EXIT_USAGE
    except RecursionError:
        # last resort: input the parser accepts can still nest too deeply
        # for a recursive pass, e.g. a very long chain of "&"
        _note("bmdl: input nested too deeply to process")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
