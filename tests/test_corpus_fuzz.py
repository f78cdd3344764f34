"""Fuzz the corpus runner with mutated copies of corpus/.

A temporary copy of the corpus, with a countermodel report added as a
model entry, is mutated once or twice: an entry field is dropped or
retyped, an entry's file is pointed at another file or at a directory, a
file is truncated, an expectation is flipped, or a formula is moved to the
other side of a report's label.  `bmdl corpus DIR` then runs in process.
Its exit code is one of 0, 1, 2, 3 and no exception escapes main; an exit
0 means every entry's file also passes the single verb that checks it
(prove, countermodel, consistent, check-model or check-proof), run on its
own with the entry's expectation.
"""

from __future__ import annotations

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from functools import lru_cache
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from bmdl.cli import decide_goal, main
from bmdl.formula import Sequent
from bmdl.parser import parse_problem, parse_sequent, print_sequent

from conftest import CORPUS

REPORT = "report.json"
ODD_VALUES = (None, 0, True, "x", [], {})
MUTATIONS = ("drop", "retype", "repoint", "truncate", "flip", "move-formula")
VERB_OF_MODE = {"consistency": "consistent", "prove": "prove", "countermodel": "countermodel"}


def _run(*argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main([str(a) for a in argv])
    return code, out.getvalue(), err.getvalue()


@lru_cache(maxsize=None)
def _report_text() -> str:
    _, report = decide_goal((), parse_sequent("[]p |- p & q"), 100_000, affirm_derivable=False)
    return json.dumps(report)


def _base_files() -> dict[str, str]:
    files = {p.name: p.read_text() for p in CORPUS.iterdir() if p.is_file()}
    manifest = json.loads(files["manifest.json"])
    manifest["entries"].append({"file": REPORT, "kind": "model", "expect": {"valid": True}, "basis": "model-check"})
    files["manifest.json"] = json.dumps(manifest)
    files[REPORT] = _report_text()
    return files


def _mutate(draw, files: dict[str, str], kind: str) -> None:
    manifest = json.loads(files["manifest.json"])
    entry = draw(st.sampled_from(manifest["entries"]))
    if kind == "drop":
        del entry[draw(st.sampled_from(sorted(entry)))]
    elif kind == "retype":
        key = draw(st.sampled_from(sorted(entry)))
        entry[key] = draw(st.sampled_from([v for v in ODD_VALUES if type(v) is not type(entry[key])]))
    elif kind == "repoint":
        entry["file"] = draw(st.sampled_from(sorted(set(files) - {entry["file"]}) + [".", "sub"]))
    elif kind == "truncate":
        name = draw(st.sampled_from(sorted(files)))
        files[name] = files[name][: draw(st.integers(0, max(0, len(files[name]) - 1)))]
    elif kind == "flip":
        flippable = [(entry["expect"], key) for key in ("derivable", "consistent", "valid", "checks")
                     if key in entry["expect"]]
        flippable += [(fact, "holds") for fact in entry["expect"].get("facts", [])]
        if flippable:
            where, key = draw(st.sampled_from(flippable))
            where[key] = not where.get(key, True)
    else:
        report = json.loads(files[REPORT])
        labels = report["countermodel"]["labels"]
        world = draw(st.sampled_from(sorted(labels)))
        s = parse_sequent(labels[world])
        sides = [list(s.ante), list(s.succ)]
        side = draw(st.sampled_from([i for i in (0, 1) if sides[i]]))
        sides[1 - side].append(sides[side].pop(draw(st.integers(0, len(sides[side]) - 1))))
        labels[world] = print_sequent(Sequent(tuple(sides[0]), tuple(sides[1])))
        files[REPORT] = json.dumps(report)
    if kind in ("drop", "retype", "repoint", "flip"):
        files["manifest.json"] = json.dumps(manifest)


@st.composite
def mutated_corpora(draw, first: str) -> dict[str, str]:
    """The corpus files after a mutation of the kind first, and sometimes a
    second one of any kind."""
    files = _base_files()
    _mutate(draw, files, first)
    if draw(st.booleans()):
        try:
            _mutate(draw, files, draw(st.sampled_from(MUTATIONS)))
        except (ValueError, KeyError, TypeError, AttributeError):
            pass  # the first mutation left nothing of the kind the second one edits
    return files


def _passes_its_verb(root: Path, item: dict) -> bool:
    """The entry's file passes the one verb that checks it, run on its own."""
    path, expect, kind = root / item["file"], item.get("expect", {}), item["kind"]
    if kind == "sequent":
        return _run("prove", path)[0] == (0 if expect["derivable"] else 1)
    if kind == "assumption-set":
        mode = parse_problem(path.read_text()).mode
        key = "consistent" if mode == "consistency" else "derivable"
        yes = expect[key] != (mode == "countermodel")
        return _run(VERB_OF_MODE[mode], path)[0] == (0 if yes else 1)
    if kind == "model":
        if (_run("check-model", path)[0] == 0) != expect.get("valid", True):
            return False
        for fact in expect.get("facts", []):
            _, out, _ = _run("check-model", path, "--holds", f"{fact['world']}::{fact['formula']}")
            if json.loads(out)["facts"][0]["holds"] != fact.get("holds", True):
                return False
        return True
    assumed = [arg for a in expect.get("assumptions", []) for arg in ("--assume", a)]
    return (_run("check-proof", path, *assumed)[0] == 0) == expect.get("checks", True)


@pytest.mark.parametrize("first", MUTATIONS)
@settings(max_examples=5)
@given(data=st.data())
def test_mutated_corpora_keep_the_exit_code_contract(tmp_path_factory, first, data):
    files = data.draw(mutated_corpora(first))
    root = tmp_path_factory.mktemp("corpus")
    (root / "sub").mkdir()
    for name, text in files.items():
        (root / name).write_text(text)
    code, _, err = _run("corpus", root)
    assert code in (0, 1, 2, 3) and "Traceback" not in err
    if code == 0:
        for item in json.loads(files["manifest.json"])["entries"]:
            assert _passes_its_verb(root, item), item


def test_the_unmutated_copy_passes_whole_and_entry_by_entry(tmp_path):
    files = _base_files()
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    assert _run("corpus", tmp_path)[0] == 0
    for item in json.loads(files["manifest.json"])["entries"]:
        assert _passes_its_verb(tmp_path, item), item
