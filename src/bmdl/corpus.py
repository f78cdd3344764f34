"""Corpus runner.

A corpus directory holds a manifest.json listing entries to replay, each a
file plus an expected outcome.  Every entry is replayed through the one
function that implements its verb in bmdl.cli, and the verdict in the
report is compared with the expectation.  Four kinds are understood:

  sequent         a .seq file with one sequent, run through prove;
                  expected key "derivable".  A derivation is kernel
                  checked, an underivable sequent gets a certified
                  countermodel.
  assumption-set  a .mdl problem file, run through the verb its "mode"
                  names: consistency (expected key "consistent"), prove or
                  countermodel (expected key "derivable"; prove checks the
                  derivation discharged against the assumptions).  A key
                  that contradicts the mode fails the entry.
  model           a model .json, or a countermodel report, run through
                  check-model; expected key "valid", optional "facts"
                  listing objects with "world" and "formula" strings and
                  an optional boolean "holds" to evaluate.  A report is
                  valid when its frame is and its claim checks: every
                  label holds at its world and the goal fails at the
                  root, as check-model requires of it.
  derivation      a derivation .json, or a prove, countermodel or
                  consistent report, run through check-proof; expected key
                  "checks", optional "assumptions" with sequent strings the
                  checker may use.  A report's derivation must conclude
                  what the report claims, from the leaves its assumptions
                  allow, as check-proof requires of it.

Entries also carry a free-form "basis" tag saying where the expectation
comes from and an optional note; both are echoed in reports.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple, Union

from .cli import DEFAULT_CORPUS, check_model, check_proof, decide_consistency, decide_goal, proof_of_json
from .countermodel import claim_of_json, model_of_json
from .kernel import DerivationError
from .parser import ParseError, parse_formula, parse_problem, parse_sequent, read_sequent_file
from .search import Budget, BudgetExceeded, DEFAULT_BUDGET

KINDS = ("sequent", "assumption-set", "model", "derivation")


class CorpusEntry(NamedTuple):
    file: str
    kind: str
    expect: dict
    basis: str = ""
    note: str = ""


class EntryResult(NamedTuple):
    entry: CorpusEntry
    ok: bool
    detail: str
    exhausted: bool = False  # failed only for running out of budget


@dataclass
class CorpusReport:
    root: str
    results: list[EntryResult] = field(default_factory=list)

    @property
    def total(self) -> int:
        return len(self.results)

    @property
    def passed(self) -> int:
        return sum(1 for r in self.results if r.ok)

    def to_json(self) -> dict:
        return {
            "root": self.root,
            "total": self.total,
            "passed": self.passed,
            "entries": [
                {
                    "file": r.entry.file,
                    "kind": r.entry.kind,
                    "ok": r.ok,
                    "detail": r.detail,
                    "basis": r.entry.basis,
                }
                for r in self.results
            ],
        }


def load_manifest(root: Union[str, Path]) -> list[CorpusEntry]:
    root = Path(root)
    manifest = root / "manifest.json"
    if not manifest.is_file():
        raise FileNotFoundError(f"no manifest.json under {root}")
    data = json.loads(manifest.read_text(encoding="utf-8-sig"))
    if not isinstance(data, dict) or not isinstance(data.get("entries", []), list):
        raise ValueError(f'{manifest}: want an object with an "entries" list')
    entries = []
    for item in data.get("entries", []):
        if not (
            isinstance(item, dict)
            and isinstance(item.get("file"), str)
            and isinstance(item.get("expect", {}), dict)
        ):
            raise ValueError(
                f'{manifest}: every entry must be an object with a "file" string and an "expect" object'
            )
        kind = item.get("kind", "")
        if kind not in KINDS:
            raise ValueError(f"manifest entry {item['file']}: unknown kind {kind!r}")
        expect = item.get("expect", {})
        if kind == "model" and not _facts_ok(expect.get("facts", [])):
            raise ValueError(
                f'{manifest}: entry {item["file"]}: "facts" must be a list of objects with'
                ' "world" and "formula" strings and an optional boolean "holds"'
            )
        assumptions = expect.get("assumptions", [])
        if kind == "derivation" and not (
            isinstance(assumptions, list) and all(isinstance(a, str) for a in assumptions)
        ):
            raise ValueError(f'{manifest}: entry {item["file"]}: "assumptions" must be a list of sequent strings')
        entries.append(
            CorpusEntry(
                file=item["file"],
                kind=kind,
                expect=expect,
                basis=item.get("basis", ""),
                note=item.get("note", ""),
            )
        )
    return entries


def _facts_ok(facts: object) -> bool:
    return isinstance(facts, list) and all(
        isinstance(fact, dict)
        and isinstance(fact.get("world"), str)
        and isinstance(fact.get("formula"), str)
        and isinstance(fact.get("holds", True), bool)
        for fact in facts
    )


def run_entry(root: Path, entry: CorpusEntry, budget: Union[int, Budget]) -> EntryResult:
    path = root / entry.file
    try:
        if not path.is_file():
            return EntryResult(entry, False, "file missing")
        return EntryResult(entry, *_replay(path, entry, Budget.ensure(budget)))
    except BudgetExceeded:
        return EntryResult(entry, False, "budget exhausted", exhausted=True)
    except (ParseError, ValueError, DerivationError, RuntimeError) as e:
        return EntryResult(entry, False, f"{type(e).__name__}: {e}")


def _replay(path: Path, entry: CorpusEntry, budget: Budget) -> tuple[bool, str]:
    """Run the entry's verb and compare its verdict with the expectation:
    (ok, detail)."""
    expect = entry.expect
    if entry.kind == "model":
        facts = expect.get("facts", [])
        data = json.loads(path.read_text(encoding="utf-8-sig"))
        model = model_of_json(data)
        _, report = check_model(
            model,
            [(fact["world"], parse_formula(fact["formula"])) for fact in facts],
            claim=claim_of_json(data, model),
        )
        # a report's claim must check as well, as check-model requires
        faults = report["violations"] + report.get("audit", [])
        if not report.get("goal_fails_at_root", True):
            faults.append("the goal holds at the root world")
        want = expect.get("valid", True)
        if (not faults) != want:
            return False, f"expected valid={want}, got {'; '.join(faults) or 'valid'}"
        for fact, got in zip(facts, report.get("facts", [])):
            if got["holds"] != fact.get("holds", True):
                return False, f"fact at {fact['world']} evaluates to {got['holds']}"
        return True, "model checked"
    if entry.kind == "derivation":
        assumed = tuple(parse_sequent(t) for t in expect.get("assumptions", []))
        derivation, claim, leaves = proof_of_json(json.loads(path.read_text(encoding="utf-8-sig")))
        _, report = check_proof(derivation, assumed + leaves, claim=claim)
        detail = "derivation checked" if report["checks"] else report["error"]
        want = expect.get("checks", True)
        if report["checks"] != want:
            return False, f"expected checks={want}: {detail}"
        return True, detail
    if entry.kind == "sequent":
        assumptions, goal, mode = (), read_sequent_file(path), "prove"
    else:
        prob = parse_problem(path.read_text(encoding="utf-8-sig"))
        assumptions, goal, mode = prob.assumptions, prob.goal, prob.mode
    key, other = ("consistent", "derivable") if mode == "consistency" else ("derivable", "consistent")
    if other in expect:
        return False, f"expectation key {other!r} contradicts mode {mode!r}, which is checked by {key!r}"
    if mode == "consistency":
        _, report = decide_consistency(assumptions, budget)
    elif goal is None:
        return False, f"mode {mode!r} but the file has no goal"
    else:
        _, report = decide_goal(assumptions, goal, budget, affirm_derivable=mode == "prove")
    want, got = expect.get(key), report[key]
    if got != want:
        return False, f"expected {key}={want}, got {got}"
    if "countermodel" in report:
        return True, "countermodel certified"
    if "witness" in report:
        return True, "inconsistency witness checked"
    return True, "discharged derivation checked" if assumptions and mode == "prove" else "derivation checked"


def run_corpus(root: Union[str, Path] = DEFAULT_CORPUS, budget: int = DEFAULT_BUDGET) -> CorpusReport:
    """Replay every manifest entry with a fresh budget each."""
    root = Path(root)
    report = CorpusReport(root=str(root))
    for entry in load_manifest(root):
        report.results.append(run_entry(root, entry, Budget(budget)))
    return report
