"""Fuzz the CLI's exit-code contract with random text as .seq and .mdl files.

For prove, countermodel and consistent on any input: the exit code is one
of 0, 1, 2, 3; no traceback escapes; and every 0 or 1 verdict carries a
certificate that check-proof or check-model, run through the same main()
on the report as printed, accepts for the goal the report names.
"""

import io
import json
import os
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from unittest import mock

import hypothesis.strategies as st
from hypothesis import given

from bmdl.cli import main
from bmdl.consistency import reduction_sequent
from bmdl.parser import parse_formula, parse_sequent, print_formula, print_sequent

from conftest import formulas, sequents

BUDGET = "3000"

# Text near the grammar, malformed more often than not.
_PIECES = [
    "p", "q", "r", "O", "(", ")", ",", "/", "~", "&", "|", "|-", "-", "->", "[]", "[",
    "false", "true", "falsey", "é", "A", "2", " ", "\t", "\n", "#",
]
noise = st.lists(st.sampled_from(_PIECES), max_size=24).map("".join)

seq_files = st.one_of(sequents.map(print_sequent), noise)

_lines = st.one_of(
    formulas.map(lambda f: "assume " + print_formula(f)),
    sequents.map(lambda s: "goal " + print_sequent(s)),
    st.sampled_from(
        ["assume false", "mode prove", "mode consistency", "mode countermodel", "mode sideways", "# note", ""]
    ),
    noise.map(lambda t: "assume " + t),
    noise,
)
mdl_files = st.lists(_lines, max_size=5).map("\n".join)


def _run(*argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def _same_sequent(a: str, b: str) -> bool:
    sa, sb = parse_sequent(a), parse_sequent(b)
    return Counter(sa.ante) == Counter(sb.ante) and Counter(sa.succ) == Counter(sb.succ)


def _check_derivation(path, conclusion: str, assumptions: list[str]) -> None:
    """check-proof accepts the report's derivation of conclusion with
    exactly these sequents as Assumption leaves."""
    code, out, err = _run("check-proof", str(path))
    assert code == 0, err
    assert _same_sequent(json.loads(out)["conclusion"], conclusion)
    assert json.loads(out)["assumptions"] == assumptions


def _check_countermodel(path, countermodel: dict, assumptions: list[str], goal: str) -> None:
    """check-model accepts the frame and the report's labels, and at the
    root every boxed assumption and every antecedent formula holds while
    every succedent formula fails."""
    s, root = parse_sequent(goal), countermodel["root"]
    facts = [f"[]({a})" for a in assumptions] + [print_formula(f) for f in s.ante]
    facts += [f"~({print_formula(f)})" for f in s.succ]
    code, _, err = _run("check-model", str(path), *[a for f in facts for a in ("--holds", f"{root}::{f}")])
    assert code == 0, err


def _check_verdict(where, verb: str, code: int, out: str) -> None:
    report = json.loads(out)
    assumptions = report["assumptions"]
    path = where / "report.json"
    path.write_text(out)
    leaves = [f"|- {a}" for a in assumptions]
    if verb == "consistent":
        if code == 1:
            _check_derivation(path, "|- false", leaves)
        else:
            _check_countermodel(path, report["countermodel"], assumptions, "|- false")
    elif "derivation" in report:
        assert code == (0 if verb == "prove" else 1)
        if verb == "prove":
            _check_derivation(path, report["sequent"], leaves)
        else:  # the verb checked the reduction sequent with no Assumption leaves
            goal = reduction_sequent([parse_formula(a) for a in assumptions], parse_sequent(report["sequent"]))
            _check_derivation(path, print_sequent(goal), [])
    else:
        assert code == (1 if verb == "prove" else 0)
        _check_countermodel(path, report["countermodel"], assumptions, report["sequent"])


def _fuzz(where, name: str, text: str) -> None:
    path = where / name
    path.write_text(text)
    with mock.patch.dict(os.environ, {"MDL_BUDGET": BUDGET}):
        for verb in ("prove", "countermodel", "consistent"):
            code, out, err = _run(verb, str(path))
            assert code in (0, 1, 2, 3)
            assert "Traceback" not in err
            if code in (0, 1):
                _check_verdict(where, verb, code, out)


@given(seq_files)
def test_random_sequent_files_keep_the_exit_code_contract(tmp_path_factory, text):
    _fuzz(tmp_path_factory.mktemp("fuzz"), "goal.seq", text)


@given(mdl_files)
def test_random_problem_files_keep_the_exit_code_contract(tmp_path_factory, text):
    _fuzz(tmp_path_factory.mktemp("fuzz"), "problem.mdl", text)
