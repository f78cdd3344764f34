import json

import pytest

from bmdl.cli import decide_goal, main
from bmdl.corpus import (
    CorpusEntry,
    load_manifest,
    read_sequent_file,
    run_corpus,
    run_entry,
)
from bmdl.formula import Atom, Sequent
from bmdl.parser import ParseError, parse_sequent

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


def test_a_report_whose_goal_holds_at_the_root_replays_invalid(tmp_path):
    report = _countermodel_report()
    report["countermodel"]["goal"] = "[]p |- p"
    report["countermodel"]["labels"]["h0"] = "[]p |- p"
    result = _replay_model(tmp_path, report, {"valid": True})
    assert not result.ok and "the goal holds at the root world" in result.detail
