"""Command line front end.

Verbs: prove, countermodel, consistent, check-model, check-proof, corpus,
bench.  Results go to stdout as JSON (--pretty to indent), diagnostics to
stderr.  Exit codes: 0 for an affirmative answer, 1 for a negative answer
with a witness in the output, 2 for usage or input errors, 3 when the
search budget ran out before an answer was reached.  The default budget
comes from the MDL_BUDGET environment variable when set.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import time
from pathlib import Path
from typing import Optional

from .consistency import (
    assumption_sequents,
    check_consistency,
    derives,
    discharge,
    reduction_sequent,
)
from .corpus import DEFAULT_CORPUS, read_sequent_file, run_corpus
from .countermodel import CountermodelError, build, model_of_json, result_to_json
from .formula import Formula, Sequent
from .gen import random_sequent
from .kernel import (
    DerivationError,
    check_derivation,
    derivation_from_json,
    derivation_to_json,
)
from .parser import (
    ParseError,
    parse_formula,
    parse_problem,
    parse_sequent,
    print_formula,
    print_sequent,
)
from .search import Budget, BudgetExceeded, DEFAULT_BUDGET, prove
from .semantics import holds, validate_frame

EXIT_YES = 0
EXIT_NO = 1
EXIT_USAGE = 2
EXIT_INCONCLUSIVE = 3


def _default_budget() -> int:
    raw = os.environ.get("MDL_BUDGET")
    if raw is None:
        return DEFAULT_BUDGET
    try:
        value = int(raw)
        if value <= 0:
            raise ValueError
        return value
    except ValueError:
        _note(f"bmdl: MDL_BUDGET must be a positive integer, got {raw!r}")
        raise SystemExit(EXIT_USAGE)


def _emit(args, data: dict) -> None:
    json.dump(data, sys.stdout, indent=2 if args.pretty else None, ensure_ascii=False)
    sys.stdout.write("\n")


def _note(msg: str) -> None:
    print(msg, file=sys.stderr)


def _load_goal(args) -> tuple[tuple[Formula, ...], Optional[Sequent]]:
    """Resolve a verb target into (assumptions, goal sequent).

    The target may be a problem file (.mdl or keyword-led), a sequent file,
    or literal sequent text; --assume formulas are appended either way."""
    extra = tuple(parse_formula(t) for t in args.assume or [])
    text = args.target
    path = Path(text)
    if _is_file(path):
        content = path.read_text()
        if path.suffix == ".mdl" or _looks_like_problem(content):
            prob = parse_problem(content)
            return prob.assumptions + extra, prob.goal
        return extra, read_sequent_file(path)
    return extra, parse_sequent(text)


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


def _cmd_prove(args) -> int:
    assumptions, goal = _load_goal(args)
    if goal is None:
        _note("bmdl: the target has no goal sequent to prove")
        return EXIT_USAGE
    b = Budget(args.budget)
    res = derives(
        assumptions,
        goal,
        b,
        atomic_init=args.atomic_init,
    ) if assumptions else prove(goal, b, atomic_init=args.atomic_init)
    out = {
        "sequent": print_sequent(goal, unicode=args.unicode),
        "assumptions": [print_formula(a, unicode=args.unicode) for a in assumptions],
        "derivable": res.accepted,
        "steps": b.used,
    }
    if res.accepted:
        d = res.derivation
        if assumptions:
            d = discharge(d, assumptions, goal)
            check_derivation(d, assumption_sequents(assumptions))
        else:
            check_derivation(d)
        out["derivation"] = derivation_to_json(d)
        _emit(args, out)
        return EXIT_YES
    cm = build(reduction_sequent(assumptions, goal), b, atomic_init=args.atomic_init)
    out["countermodel"] = result_to_json(cm)
    _emit(args, out)
    return EXIT_NO


def _cmd_countermodel(args) -> int:
    assumptions, goal = _load_goal(args)
    if goal is None:
        _note("bmdl: the target has no goal sequent")
        return EXIT_USAGE
    b = Budget(args.budget)
    target = reduction_sequent(assumptions, goal)
    res = prove(target, b, atomic_init=args.atomic_init)
    out = {
        "sequent": print_sequent(goal, unicode=args.unicode),
        "assumptions": [print_formula(a, unicode=args.unicode) for a in assumptions],
        "derivable": res.accepted,
        "steps": b.used,
    }
    if res.accepted:
        out["derivation"] = derivation_to_json(res.derivation)
        _emit(args, out)
        return EXIT_NO
    cm = build(target, b, atomic_init=args.atomic_init)
    out["countermodel"] = result_to_json(cm)
    _emit(args, out)
    return EXIT_YES


def _cmd_consistent(args) -> int:
    assumptions = tuple(parse_formula(t) for t in args.assume or [])
    if args.target:
        path = Path(args.target)
        if not _is_file(path):
            _note(f"bmdl: no such file: {args.target}")
            return EXIT_USAGE
        prob = parse_problem(path.read_text())
        assumptions = prob.assumptions + assumptions
    if not assumptions:
        _note("bmdl: nothing to check; give a problem file or --assume formulas")
        return EXIT_USAGE
    res = check_consistency(
        assumptions,
        Budget(args.budget),
        atomic_init=args.atomic_init,
        with_model=not args.no_model,
    )
    out = {
        "assumptions": [print_formula(a, unicode=args.unicode) for a in assumptions],
        "consistent": res.consistent,
        "steps": res.steps_used,
    }
    if res.consistent:
        if res.countermodel is not None:
            out["countermodel"] = result_to_json(res.countermodel)
        _emit(args, out)
        return EXIT_YES
    check_derivation(res.witness, assumption_sequents(assumptions))
    out["witness"] = derivation_to_json(res.witness)
    _emit(args, out)
    return EXIT_NO


def _cmd_check_model(args) -> int:
    data = json.loads(Path(args.file).read_text())
    m = model_of_json(data, close_rt=args.close_rt)
    violations = validate_frame(m)
    facts = []
    cache: dict = {}
    for spec_text in args.holds or []:
        if "::" not in spec_text:
            _note(f"bmdl: --holds wants WORLD::FORMULA, got {spec_text!r}")
            return EXIT_USAGE
        world, formula_text = spec_text.split("::", 1)
        f = parse_formula(formula_text)
        facts.append(
            {
                "world": world,
                "formula": print_formula(f, unicode=args.unicode),
                "holds": holds(m, world, f, cache),
            }
        )
    out = {
        "valid": not violations,
        "worlds": len(m.worlds),
        "violations": [str(v) for v in violations],
    }
    if facts:
        out["facts"] = facts
    _emit(args, out)
    if violations or any(not fact["holds"] for fact in facts):
        return EXIT_NO
    return EXIT_YES


def _cmd_check_proof(args) -> int:
    d = derivation_from_json(json.loads(Path(args.file).read_text()))
    assumed = tuple(parse_sequent(t) for t in args.assume or [])
    out = {
        "conclusion": print_sequent(d.conclusion, unicode=args.unicode),
        "assumptions": [print_sequent(s, unicode=args.unicode) for s in assumed],
    }
    try:
        check_derivation(d, assumed)
    except DerivationError as e:
        out["checks"] = False
        out["error"] = str(e)
        _emit(args, out)
        return EXIT_NO
    out["checks"] = True
    out["rules"] = {r.value: n for r, n in sorted(d.rules_used().items(), key=lambda kv: kv[0].value)}
    _emit(args, out)
    return EXIT_YES


def _cmd_corpus(args) -> int:
    report = run_corpus(args.root, budget=args.budget, atomic_init=args.atomic_init)
    _emit(args, report.to_json())
    if not report.all_ok:
        for r in report.results:
            if not r.ok:
                _note(f"bmdl: corpus entry {r.entry.file} failed: {r.detail}")
        return EXIT_NO
    return EXIT_YES


def _cmd_bench(args) -> int:
    sizes = [int(t) for t in args.sizes.split(",") if t.strip()]
    rng = random.Random(args.seed)
    rows = []
    exhausted_any = False
    for size in sizes:
        derivable = underivable = inconclusive = 0
        max_steps = 0
        t0 = time.perf_counter()
        for _ in range(args.samples):
            s = random_sequent(rng, size=size)
            b = Budget(args.budget)
            try:
                res = prove(s, b, atomic_init=args.atomic_init)
                if res.accepted:
                    derivable += 1
                else:
                    build(s, b, atomic_init=args.atomic_init)
                    underivable += 1
            except BudgetExceeded:
                inconclusive += 1
                exhausted_any = True
            max_steps = max(max_steps, b.used)
        rows.append(
            {
                "size": size,
                "samples": args.samples,
                "derivable": derivable,
                "underivable": underivable,
                "inconclusive": inconclusive,
                "seconds": round(time.perf_counter() - t0, 3),
                "max_steps": max_steps,
            }
        )
    _emit(args, {"seed": args.seed, "budget": args.budget, "rows": rows})
    return EXIT_INCONCLUSIVE if exhausted_any else EXIT_YES


def _build_parser() -> argparse.ArgumentParser:
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
        type=int,
        default=_default_budget(),
        help="search step budget (default %(default)s, or MDL_BUDGET)",
    )
    search_flags.add_argument(
        "--atomic-init",
        action="store_true",
        help="close branches only on shared atoms",
    )

    p = sub.add_parser(
        "prove",
        parents=[out_flags, search_flags],
        help="decide a sequent; print a checked derivation or a countermodel",
    )
    p.add_argument("target", help="sequent text, .seq file, or problem file")
    p.add_argument("--assume", action="append", metavar="FORMULA", help="extra assumption")
    p.set_defaults(fn=_cmd_prove)

    p = sub.add_parser(
        "countermodel",
        parents=[out_flags, search_flags],
        help="build a certified countermodel for an underivable sequent",
    )
    p.add_argument("target", help="sequent text, .seq file, or problem file")
    p.add_argument("--assume", action="append", metavar="FORMULA", help="extra assumption")
    p.set_defaults(fn=_cmd_countermodel)

    p = sub.add_parser(
        "consistent",
        parents=[out_flags, search_flags],
        help="decide outer consistency of an assumption set",
    )
    p.add_argument("target", nargs="?", help="problem file with assume lines")
    p.add_argument("--assume", action="append", metavar="FORMULA", help="extra assumption")
    p.add_argument("--no-model", action="store_true", help="skip the witness countermodel")
    p.set_defaults(fn=_cmd_consistent)

    p = sub.add_parser(
        "check-model",
        parents=[out_flags],
        help="validate a model file against the frame conditions",
    )
    p.add_argument("file", help="model .json, or a countermodel report")
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
    p.add_argument("file", help="derivation .json")
    p.add_argument("--assume", action="append", metavar="SEQUENT", help="allowed Assumption leaf")
    p.set_defaults(fn=_cmd_check_proof)

    p = sub.add_parser(
        "corpus",
        parents=[out_flags, search_flags],
        help="replay a corpus directory against its manifest",
    )
    p.add_argument("root", nargs="?", default=str(DEFAULT_CORPUS), help="corpus directory")
    p.set_defaults(fn=_cmd_corpus)

    p = sub.add_parser(
        "bench",
        parents=[out_flags, search_flags],
        help="time the full pipeline on random sequents",
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--sizes", default="3,5,7", help="comma list of formula sizes")
    p.add_argument("--samples", type=int, default=25, help="sequents per size")
    p.set_defaults(fn=_cmd_bench)

    return top


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ParseError as e:
        _note(f"bmdl: parse error: {e}")
        return EXIT_USAGE
    except BudgetExceeded as e:
        _emit(args, {"inconclusive": True, "budget": e.limit})
        _note(f"bmdl: {e}")
        return EXIT_INCONCLUSIVE
    except FileNotFoundError as e:
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
