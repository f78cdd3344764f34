"""End-to-end acceptance checks.

Each test prints one summary line (bypassing capture, so it is visible in
the live run) and then asserts its criterion.  The random suites use fixed
seeds; expectations on them are invariants, not frozen outputs.
"""

import json
import random
import sys
from contextlib import contextmanager
from time import perf_counter

from bmdl.consistency import (
    assumption_sequents,
    check_consistency,
    discharge,
    reduction_sequent,
)
from bmdl.countermodel import build, truth_lemma_audit
from bmdl.formula import Sequent
from bmdl.gen import random_assumptions, random_formula, random_sequent
from bmdl.kernel import check_derivation
from bmdl.calculus import RuleId
from bmdl.parser import parse_formula, parse_sequent
from bmdl.search import Budget, BudgetExceeded, decide, prove
from bmdl.semantics import falsifies, holds, model_from_json, truth_set, validate_frame

from conftest import ACCEPTANCE_LINES, CORPUS

FULL_BUDGET = 1_000_000


def _report(n: int, ok: bool, detail: str) -> None:
    line = f"criterion {n}: {'PASS' if ok else 'FAIL'} ({detail})"
    ACCEPTANCE_LINES.append(line)
    print(f"[acceptance] {line}", file=sys.__stderr__, flush=True)


@contextmanager
def _criterion(n: int):
    outcome = {"ok": False, "detail": ""}
    try:
        yield outcome
    except BaseException as e:
        if not outcome["detail"]:
            outcome["detail"] = f"{type(e).__name__}: {e}"
        _report(n, False, outcome["detail"])
        raise
    _report(n, outcome["ok"], outcome["detail"])
    assert outcome["ok"], outcome["detail"]


THEOREMS = [
    "|- ([](p -> q) & O(p / r)) -> O(q / r)",
    "|- [](q -> ~p) -> ~(O(p / r) & O(q / r))",
    "|- ([]((q -> r) & (r -> q)) & O(p / q)) -> O(p / r)",
    "|- [](p -> q) -> ([]p -> []q)",
    "|- []p -> p",
    "|- []p -> [][]p",
]

SYENA = [
    "he -> hrm",
    "sy -> he",
    "O(~hrm / ~false)",
    "O(sy / dhe)",
]

SYENA_CONJUNCTION = (
    "[](he -> hrm) & [](sy -> he) & []O(~hrm / ~false) & []O(sy / dhe)"
)


def test_criterion_1_theorems_prove_fast_and_check():
    with _criterion(1) as c:
        worst = 0.0
        for text in THEOREMS:
            s = parse_sequent(text)
            t0 = perf_counter()
            res = prove(s, Budget(FULL_BUDGET))
            dt = perf_counter() - t0
            worst = max(worst, dt)
            if not res.accepted:
                c["detail"] = f"not derivable: {text}"
                return
            check_derivation(res.derivation)
            if dt >= 1.0:
                c["detail"] = f"too slow ({dt:.2f}s): {text}"
                return
        c["ok"] = True
        c["detail"] = f"{len(THEOREMS)} theorems proved and checked, worst {worst * 1000:.1f}ms"


def test_criterion_2_falsum_is_rejected_with_a_model():
    with _criterion(2) as c:
        s = parse_sequent("|- false")
        rejected = not decide(s, Budget(FULL_BUDGET))
        res = build(s, Budget(FULL_BUDGET))
        c["ok"] = (
            rejected
            and res.certified
            and validate_frame(res.model) == []
            and falsifies(res.model, res.root, s)
        )
        c["detail"] = f"rejected={rejected}, certified={res.certified}, worlds={len(res.model.worlds)}"


def test_criterion_3_syena_set_is_consistent_with_witness():
    with _criterion(3) as c:
        assumptions = [parse_formula(t) for t in SYENA]
        t0 = perf_counter()
        res = check_consistency(assumptions, Budget(FULL_BUDGET))
        dt = perf_counter() - t0
        cm = res.countermodel
        checks = {
            "consistent": res.consistent,
            "in time": dt < 60.0,
            "certified": cm is not None and cm.certified,
            "frame": cm is not None and validate_frame(cm.model) == [],
            "audit": cm is not None and truth_lemma_audit(cm.model, cm.resolved) == [],
            "conjunction": cm is not None
            and holds(cm.model, cm.root, parse_formula(SYENA_CONJUNCTION)),
        }
        c["ok"] = all(checks.values())
        failed = [k for k, v in checks.items() if not v]
        c["detail"] = (
            f"consistent in {dt:.1f}s, {len(cm.model.worlds) if cm else 0} worlds"
            if c["ok"]
            else f"failed: {', '.join(failed)}"
        )


def test_criterion_4_reference_model_checks_out():
    with _criterion(4) as c:
        m = model_from_json(json.loads((CORPUS / "m0.json").read_text()))
        frame_ok = validate_frame(m) == []
        forbidden_everywhere = truth_set(m, parse_formula("O(~hrm / ~false)")) == frozenset(
            m.worlds
        )
        boxed_prescription = holds(m, "w1", parse_formula("[]O(sy / dhe)"))
        conjunction = holds(m, "w1", parse_formula(SYENA_CONJUNCTION))
        c["ok"] = (
            frame_ok
            and len(m.worlds) == 8
            and forbidden_everywhere
            and boxed_prescription
            and conjunction
        )
        c["detail"] = (
            f"frame={frame_ok}, prohibition everywhere={forbidden_everywhere}, "
            f"prescription and conjunction at w1={boxed_prescription and conjunction}"
        )


def test_criterion_5_absurd_body_obligation_refuted_via_d1():
    with _criterion(5) as c:
        s = parse_sequent("|- ~O(false / q)")
        res = prove(s, Budget(FULL_BUDGET))
        if not res.accepted:
            c["detail"] = "sequent not derivable"
            return
        check_derivation(res.derivation)
        used = res.derivation.rules_used()
        c["ok"] = used[RuleId.D1] >= 1 and used[RuleId.BOTTOM_L] >= 1
        c["detail"] = (
            "derivation checked, rules: "
            + ", ".join(f"{r.value}x{n}" for r, n in sorted(used.items(), key=lambda kv: kv[0].value))
        )


def test_criterion_6_structural_invariants_on_random_sequents():
    with _criterion(6) as c:
        rng = random.Random(271828)
        weaken_bad = dup_bad = 0
        n = 500
        for _ in range(n):
            s = random_sequent(rng, size=6)
            verdict = decide(s, Budget(FULL_BUDGET))
            extra_a = tuple(
                random_formula(rng, rng.randint(1, 3)) for _ in range(rng.randint(0, 2))
            )
            extra_s = tuple(
                random_formula(rng, rng.randint(1, 3)) for _ in range(rng.randint(0, 2))
            )
            if verdict and not decide(
                Sequent(s.ante + extra_a, s.succ + extra_s), Budget(FULL_BUDGET)
            ):
                weaken_bad += 1
            doubled = Sequent(s.ante + s.ante[:1], s.succ + s.succ[-1:])
            if decide(doubled, Budget(FULL_BUDGET)) != verdict:
                dup_bad += 1
        cut_checked = cut_bad = 0
        while cut_checked < 100:
            cut = random_formula(rng, rng.randint(1, 3))
            left = random_sequent(rng, size=4)
            right = random_sequent(rng, size=4)
            if decide(Sequent(left.ante, left.succ + (cut,)), Budget(FULL_BUDGET)) and decide(
                Sequent((cut,) + right.ante, right.succ), Budget(FULL_BUDGET)
            ):
                cut_checked += 1
                if not decide(
                    Sequent(left.ante + right.ante, left.succ + right.succ),
                    Budget(FULL_BUDGET),
                ):
                    cut_bad += 1
        c["ok"] = weaken_bad == 0 and dup_bad == 0 and cut_bad == 0
        c["detail"] = (
            f"{n} sequents: weakening violations={weaken_bad}, "
            f"duplication violations={dup_bad}, cut compositions={cut_checked}, "
            f"cut violations={cut_bad}"
        )


_PIPELINE: dict = {}


def _run_pipeline_suite() -> dict:
    if _PIPELINE:
        return _PIPELINE
    rng = random.Random(314159)
    accepted = rejected = failures = exhausted = 0
    first_error = ""
    t0 = perf_counter()
    for _ in range(500):
        s = random_sequent(rng, size=6)
        b = Budget(FULL_BUDGET)
        try:
            res = prove(s, b)
            if res.accepted:
                check_derivation(res.derivation)
                accepted += 1
            else:
                cm = build(s, b)
                if not (cm.certified and falsifies(cm.model, cm.root, s)):
                    raise RuntimeError("uncertified countermodel")
                rejected += 1
        except BudgetExceeded:
            exhausted += 1
        except Exception as e:  # noqa: BLE001 - tallied and reported below
            failures += 1
            first_error = first_error or f"{type(e).__name__}: {e}"
    _PIPELINE.update(
        count=accepted + rejected,
        accepted=accepted,
        rejected=rejected,
        failures=failures,
        exhausted=exhausted,
        seconds=perf_counter() - t0,
        budget=FULL_BUDGET,
        first_error=first_error,
    )
    return _PIPELINE


def test_criterion_7_every_random_sequent_gets_a_certificate():
    with _criterion(7) as c:
        m = _run_pipeline_suite()
        c["ok"] = m["count"] >= 500 and m["failures"] == 0 and m["exhausted"] == 0
        c["detail"] = (
            f"{m['count']} certificates ({m['accepted']} derivations, "
            f"{m['rejected']} countermodels), failures={m['failures']}"
            + (f", first error: {m['first_error']}" if m["first_error"] else "")
        )


def test_criterion_8_pipeline_suite_fits_the_budget():
    with _criterion(8) as c:
        m = _run_pipeline_suite()
        c["ok"] = (
            m["budget"] == FULL_BUDGET
            and m["exhausted"] == 0
            and m["seconds"] < 600.0
            and m["count"] >= 500
        )
        c["detail"] = (
            f"{m['count']} sequents in {m['seconds']:.1f}s at budget {m['budget']}, "
            f"exhausted={m['exhausted']}"
        )


def test_criterion_9_reduction_agrees_with_discharged_derivations():
    with _criterion(9) as c:
        rng = random.Random(161803)
        accepted = mismatches = 0
        for _ in range(50):
            assumptions = random_assumptions(rng, rng.randint(0, 3))
            goal = random_sequent(rng, size=4)
            res = prove(reduction_sequent(assumptions, goal), Budget(FULL_BUDGET))
            if not res.accepted:
                continue
            accepted += 1
            d = discharge(res.derivation, assumptions, goal)
            try:
                check_derivation(d, assumption_sequents(assumptions))
            except Exception:
                mismatches += 1
                continue
            if d.conclusion != goal:
                mismatches += 1
        c["ok"] = mismatches == 0
        c["detail"] = (
            f"50 assumption/goal pairs, {accepted} accepted, "
            f"discharge mismatches={mismatches}"
        )
