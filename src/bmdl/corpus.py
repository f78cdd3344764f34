"""Corpus runner.

A corpus directory holds a manifest.json listing entries to replay, each a
file plus an expected outcome.  Four kinds are understood:

  sequent         a .seq file with one sequent; expected key "derivable".
                  Derivable entries are proved and their derivations
                  checked, underivable ones get a certified countermodel.
  assumption-set  a .mdl problem file; expected key "consistent" (for
                  consistency mode) or "derivable" (for prove mode, the
                  discharged derivation is checked against the assumptions,
                  an underivable goal gets a certified countermodel).
  model           a model .json; expected key "valid", optional "facts"
                  listing world/formula/holds triples to evaluate.
  derivation      a derivation .json; expected key "checks", optional
                  "assumptions" with sequent strings the checker may use.

Entries also carry a free-form "basis" tag saying where the expectation
comes from and an optional note; both are echoed in reports.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Union

from .consistency import assumption_sequents, check_consistency, discharge, reduction_sequent
from .countermodel import certify
from .formula import Formula, Sequent
from .kernel import DerivationError, check_derivation, derivation_from_json
from .parser import ParseError, parse_formula, parse_problem, parse_sequent
from .search import Budget, BudgetExceeded, DEFAULT_BUDGET
from .semantics import holds, model_from_json, validate_frame

DEFAULT_CORPUS = Path("corpus")

KINDS = ("sequent", "assumption-set", "model", "derivation")


@dataclass(frozen=True)
class CorpusEntry:
    file: str
    kind: str
    expect: dict
    basis: str = ""
    note: str = ""


@dataclass(frozen=True)
class EntryResult:
    entry: CorpusEntry
    ok: bool
    detail: str


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

    @property
    def all_ok(self) -> bool:
        return all(r.ok for r in self.results)

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
    data = json.loads(manifest.read_text())
    entries = []
    for item in data.get("entries", []):
        kind = item.get("kind", "")
        if kind not in KINDS:
            raise ValueError(f"manifest entry {item.get('file')}: unknown kind {kind!r}")
        entries.append(
            CorpusEntry(
                file=item["file"],
                kind=kind,
                expect=item.get("expect", {}),
                basis=item.get("basis", ""),
                note=item.get("note", ""),
            )
        )
    return entries


def read_sequent_file(path: Path) -> Sequent:
    """First meaningful line of a .seq file, # comments and blanks skipped."""
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            try:
                return parse_sequent(line)
            except ParseError as e:
                raise ParseError(e.message, lineno, e.col, e.expected) from None
    raise ParseError("file holds no sequent", 1, 1)


def _run_assumption_set(path: Path, entry: CorpusEntry, budget: Budget, atomic_init: bool) -> EntryResult:
    prob = parse_problem(path.read_text())
    if "consistent" in entry.expect:
        want = entry.expect["consistent"]
        res = check_consistency(prob.assumptions, budget, atomic_init=atomic_init)
        if res.consistent != want:
            return EntryResult(entry, False, f"expected consistent={want}, got {res.consistent}")
        if not res.consistent:
            check_derivation(res.witness, assumption_sequents(prob.assumptions))
            return EntryResult(entry, True, "inconsistency witness checked")
        return EntryResult(entry, True, "countermodel certified")
    if prob.goal is None:
        return EntryResult(entry, False, "prove-style expectation but the file has no goal")
    return _run_goal(entry, prob.assumptions, prob.goal, budget, atomic_init)


def _run_goal(
    entry: CorpusEntry, assumptions: tuple[Formula, ...], goal: Sequent, budget: Budget, atomic_init: bool
) -> EntryResult:
    """Certify the goal from the assumptions; a derivation is discharged and
    checked against them."""
    want = entry.expect.get("derivable")
    res = certify(reduction_sequent(assumptions, goal), budget, atomic_init=atomic_init).search
    if res.accepted != want:
        return EntryResult(entry, False, f"expected derivable={want}, got {res.accepted}")
    if not res.accepted:
        return EntryResult(entry, True, "countermodel certified")
    check_derivation(discharge(res.derivation, assumptions, goal), assumption_sequents(assumptions))
    return EntryResult(entry, True, "discharged derivation checked" if assumptions else "derivation checked")


def _run_model(path: Path, entry: CorpusEntry) -> EntryResult:
    m = model_from_json(json.loads(path.read_text()))
    want = entry.expect.get("valid", True)
    bad = validate_frame(m)
    if bool(not bad) != want:
        got = "valid" if not bad else "; ".join(str(v) for v in bad)
        return EntryResult(entry, False, f"expected valid={want}, got {got}")
    cache: dict = {}
    for fact in entry.expect.get("facts", []):
        f = parse_formula(fact["formula"])
        value = holds(m, fact["world"], f, cache)
        if value != fact.get("holds", True):
            return EntryResult(
                entry, False, f"fact at {fact['world']} evaluates to {value}"
            )
    return EntryResult(entry, True, "model checked")


def _run_derivation(path: Path, entry: CorpusEntry) -> EntryResult:
    d = derivation_from_json(json.loads(path.read_text()))
    assumed = tuple(parse_sequent(t) for t in entry.expect.get("assumptions", []))
    want = entry.expect.get("checks", True)
    try:
        check_derivation(d, assumed)
        ok, detail = True, "derivation checked"
    except DerivationError as e:
        ok, detail = False, str(e)
    if ok != want:
        return EntryResult(entry, False, f"expected checks={want}: {detail}")
    return EntryResult(entry, True, detail)


def run_entry(
    root: Path, entry: CorpusEntry, budget: Union[int, Budget], atomic_init: bool = False
) -> EntryResult:
    path = root / entry.file
    b = Budget.ensure(budget)
    try:
        if not path.is_file():
            return EntryResult(entry, False, "file missing")
        if entry.kind == "sequent":
            return _run_goal(entry, (), read_sequent_file(path), b, atomic_init)
        if entry.kind == "assumption-set":
            return _run_assumption_set(path, entry, b, atomic_init)
        if entry.kind == "model":
            return _run_model(path, entry)
        return _run_derivation(path, entry)
    except BudgetExceeded:
        return EntryResult(entry, False, "budget exhausted")
    except (ParseError, ValueError, DerivationError, RuntimeError) as e:
        return EntryResult(entry, False, f"{type(e).__name__}: {e}")


def run_corpus(
    root: Union[str, Path] = DEFAULT_CORPUS,
    budget: int = DEFAULT_BUDGET,
    atomic_init: bool = False,
) -> CorpusReport:
    """Replay every manifest entry with a fresh budget each."""
    root = Path(root)
    report = CorpusReport(root=str(root))
    for entry in load_manifest(root):
        report.results.append(run_entry(root, entry, Budget(budget), atomic_init))
    return report
