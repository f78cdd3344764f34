import json

import pytest

from bmdl.cli import decide_consistency, decide_goal, main
from bmdl.corpus import (
    CorpusEntry,
    load_manifest,
    read_sequent_file,
    run_corpus,
    run_entry,
)
from bmdl.formula import Atom, Sequent
from bmdl.parser import ParseError, parse_formula, parse_sequent

from conftest import CORPUS


def test_manifest_loads():
    entries = load_manifest(CORPUS)
    assert len(entries) >= 15
    kinds = {e.kind for e in entries}
    assert kinds == {"sequent", "assumption-set", "model", "derivation"}
    assert all(e.basis for e in entries)


def test_manifest_must_exist(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_manifest(tmp_path)


def test_unknown_kinds_are_rejected(tmp_path):
    (tmp_path / "manifest.json").write_text(
        json.dumps({"entries": [{"file": "x", "kind": "mystery"}]})
    )
    with pytest.raises(ValueError):
        load_manifest(tmp_path)


def test_read_sequent_file_skips_comments(tmp_path):
    f = tmp_path / "a.seq"
    f.write_text("# leading note\n\n  p |- q  # trailing note\n")
    assert read_sequent_file(f) == Sequent((Atom("p"),), (Atom("q"),))
    f.write_text("# nothing else\n")
    with pytest.raises(ParseError):
        read_sequent_file(f)


def test_whole_corpus_passes():
    report = run_corpus(CORPUS)
    assert report.total == len(load_manifest(CORPUS))
    failures = [(r.entry.file, r.detail) for r in report.results if not r.ok]
    assert not failures, failures
    assert report.passed == report.total
    data = report.to_json()
    assert data["total"] == report.total
    assert all(e["detail"] for e in data["entries"])


def test_wrong_expectation_is_reported():
    entry = CorpusEntry(file="s4_t.seq", kind="sequent", expect={"derivable": False})
    result = run_entry(CORPUS, entry, budget=100_000)
    assert not result.ok
    assert "expected" in result.detail


def test_missing_file_is_reported():
    entry = CorpusEntry(file="nope.seq", kind="sequent", expect={"derivable": True})
    result = run_entry(CORPUS, entry, budget=1000)
    assert not result.ok and result.detail == "file missing"


def test_budget_exhaustion_is_reported():
    entry = CorpusEntry(
        file="axiom1.seq", kind="sequent", expect={"derivable": True}
    )
    result = run_entry(CORPUS, entry, budget=3)
    assert not result.ok and "budget" in result.detail
    assert result.exhausted
    # a failure on the verdict is not one of budget
    entry = CorpusEntry(file="axiom1.seq", kind="sequent", expect={"derivable": False})
    result = run_entry(CORPUS, entry, budget=100_000)
    assert not result.ok and not result.exhausted


def _replay_problem(tmp_path, problem: str, expect: dict):
    """Replay a one-entry manifest holding the problem file."""
    (tmp_path / "p.mdl").write_text(problem)
    entry = {"file": "p.mdl", "kind": "assumption-set", "expect": expect}
    (tmp_path / "manifest.json").write_text(json.dumps({"entries": [entry]}))
    (result,) = run_corpus(tmp_path, budget=100_000).results
    return result


def test_problem_mode_picks_the_verb(tmp_path):
    result = _replay_problem(tmp_path, "goal |- O(p / q)\nmode countermodel\n", {"derivable": False})
    assert result.ok and result.detail == "countermodel certified"
    result = _replay_problem(tmp_path, "assume p\ngoal |- p\nmode countermodel\n", {"derivable": True})
    assert result.ok and result.detail == "derivation checked"
    result = _replay_problem(tmp_path, "assume p\ngoal |- p\n", {"derivable": True})
    assert result.ok and result.detail == "discharged derivation checked"
    result = _replay_problem(tmp_path, "mode prove\n", {"derivable": True})
    assert not result.ok and "no goal" in result.detail


@pytest.mark.parametrize(
    "problem, expect, named",
    [
        ("assume p\ngoal |- p\nmode prove\n", {"consistent": True}, ("'consistent'", "'prove'")),
        ("assume p\ngoal |- p\nmode consistency\n", {"derivable": True}, ("'derivable'", "'consistency'")),
    ],
    ids=["prove-with-consistent", "consistency-with-derivable"],
)
def test_an_expectation_key_that_contradicts_the_mode_fails(tmp_path, problem, expect, named):
    result = _replay_problem(tmp_path, problem, expect)
    assert not result.ok
    assert all(word in result.detail for word in named)


def _countermodel_report() -> dict:
    code, report = decide_goal((), parse_sequent("[]p |- p & q"), 100_000, affirm_derivable=False)
    assert code == 0
    return report


def _replay_model(tmp_path, report: dict, expect: dict):
    (tmp_path / "rep.json").write_text(json.dumps(report))
    entry = {"file": "rep.json", "kind": "model", "expect": expect}
    (tmp_path / "manifest.json").write_text(json.dumps({"entries": [entry]}))
    (result,) = run_corpus(tmp_path, budget=100_000).results
    return result


def test_a_report_replays_with_the_audit_that_check_model_runs(tmp_path, capsys):
    report = _countermodel_report()
    result = _replay_model(tmp_path, report, {"valid": True})
    assert result.ok and result.detail == "model checked"

    report["countermodel"]["labels"]["h0"] = "[]p, p |- p & q, p"
    result = _replay_model(tmp_path, report, {"valid": True})
    assert not result.ok
    assert result.detail == "expected valid=True, got h0: right formula p is true in the model"
    assert main(["check-model", str(tmp_path / "rep.json")]) == 1
    assert "h0: right formula p is true in the model" in capsys.readouterr().out
    assert main(["corpus", str(tmp_path)]) == 1
    assert _replay_model(tmp_path, report, {"valid": False}).ok


def test_a_fact_expectation_the_model_contradicts_fails(tmp_path):
    report = _countermodel_report()
    facts = [{"world": "h0", "formula": "p"}, {"world": "h0", "formula": "[]p", "holds": True}]
    assert _replay_model(tmp_path, report, {"valid": True, "facts": facts}).ok
    for fact, got in (({"world": "h0", "formula": "q"}, False), ({"world": "h0", "formula": "p", "holds": False}, True)):
        result = _replay_model(tmp_path, report, {"valid": True, "facts": facts + [fact]})
        assert not result.ok
        assert result.detail == f"fact at h0 evaluates to {got}"


def test_a_report_whose_goal_holds_at_the_root_replays_invalid(tmp_path):
    report = _countermodel_report()
    report["countermodel"]["goal"] = "[]p |- p"
    report["countermodel"]["labels"]["h0"] = "[]p |- p"
    result = _replay_model(tmp_path, report, {"valid": True})
    assert not result.ok and "the goal holds at the root world" in result.detail


def test_derivation_entries_replay_the_reports_check_proof_accepts(tmp_path, capsys):
    # one report of each verb that prints a derivation: prove and
    # countermodel of a derivable goal under an assumption, and consistent
    # on an inconsistent set; and a prove report whose sequent was edited
    assumptions, goal = (parse_formula("[](p -> q)"),), parse_sequent("[]p |- []q")
    reports = {
        "prove.json": decide_goal(assumptions, goal, 100_000)[1],
        "countermodel.json": decide_goal(assumptions, goal, 100_000, affirm_derivable=False)[1],
        "consistent.json": decide_consistency((parse_formula("p"), parse_formula("~p")), 100_000)[1],
    }
    reports["edited.json"] = dict(reports["prove.json"], sequent="[]p |- q")
    for name, report in reports.items():
        (tmp_path / name).write_text(json.dumps(report))
        assert main(["check-proof", str(tmp_path / name)]) == (1 if name == "edited.json" else 0)
    capsys.readouterr()
    entries = [{"file": name, "kind": "derivation", "expect": {"checks": name != "edited.json"}} for name in reports]
    (tmp_path / "manifest.json").write_text(json.dumps({"entries": entries}))
    results = run_corpus(tmp_path, budget=100_000).results
    assert [(r.entry.file, r.ok) for r in results] == [(name, True) for name in reports]
    assert [r.detail for r in results[:3]] == ["derivation checked"] * 3
    assert results[3].detail.endswith(", not []p |- q")


def test_a_derivation_entry_that_points_at_a_countermodel_report_fails_with_the_reason(tmp_path):
    # reports that hold a countermodel and no proof: countermodel of an
    # underivable goal, and consistent on a consistent set
    reports = {
        "countermodel.json": decide_goal((), parse_sequent("|- p"), 100_000, affirm_derivable=False)[1],
        "consistent.json": decide_consistency((parse_formula("p"),), 100_000)[1],
    }
    for name, report in reports.items():
        assert "countermodel" in report
        (tmp_path / name).write_text(json.dumps(report))
    entries = [{"file": name, "kind": "derivation", "expect": {"checks": True}} for name in reports]
    (tmp_path / "manifest.json").write_text(json.dumps({"entries": entries}))
    results = run_corpus(tmp_path, budget=100_000).results
    assert [(r.entry.file, r.ok, r.exhausted) for r in results] == [(name, False, False) for name in reports]
    assert {r.detail for r in results} == {
        "ValueError: the report holds a countermodel and no proof; check it with check-model"
    }
