"""Fuzz check-model and check-proof with mutated and random JSON.

Valid prove, countermodel and consistent reports, as the CLI prints them,
are mutated: a field is dropped, retyped or swapped with another, a world's
label is copied onto another world, a formula is moved to the other side
of a label, or the report's sequent is replaced.  Each result goes through
both verbs in cli.main.  The exit code is one of 0, 1, 2 and no traceback
escapes.  An exit 0 from check-model means the frame is valid and every
label the report still carries holds in its model, which is checked here
world by world; an exit 0 from check-proof means the derivation concludes
what the report claims and the kernel accepts it with the Assumption
leaves the verb allowed.
"""

from __future__ import annotations

import copy
import io
import json
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from functools import lru_cache

import hypothesis.strategies as st
from hypothesis import given, settings

from bmdl.cli import main
from bmdl.consistency import assumption_sequents, reduction_sequent
from bmdl.countermodel import model_of_json
from bmdl.kernel import check_derivation, derivation_from_json
from bmdl.formula import Sequent
from bmdl.parser import parse_formula, parse_sequent, print_sequent
from bmdl.semantics import falsifies, holds, validate_frame

BASES = (
    ("prove", "|- []p -> p"),
    ("prove", "--assume", "p -> q", "p |- q"),
    ("prove", "O(p / q), O(q / r) |- O(p / r)"),
    ("countermodel", "[]p |- p & q"),
    ("countermodel", "--assume", "O(p / q)", "|- O(p & q / q)"),
    ("consistent", "--assume", "O(p / q)", "--assume", "[](q -> p)"),
    ("consistent", "--assume", "p", "--assume", "~p"),
)

CLAIMS = ("|- p", "|- []p -> p", "p |- q", "|- O(p & q / q)", "O(p / q) |- O(p & q / q)", "[]p |- p & q")

ODD_VALUES = (None, 0, 1.5, True, "x", "|-", [], {}, ["h0"], {"h0": "|-"})


def _run(*argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


@lru_cache(maxsize=None)
def _printed(i: int) -> str:
    code, out, _ = _run(*BASES[i])
    assert code in (0, 1)
    return out


def _paths(data, here=()) -> list[tuple]:
    """Every path below the root of a JSON value, parents first."""
    found = []
    items = data.items() if isinstance(data, dict) else enumerate(data) if isinstance(data, list) else ()
    for key, value in items:
        found.append(here + (key,))
        found.extend(_paths(value, here + (key,)))
    return found


def _get(data, path):
    for key in path:
        data = data[key]
    return data


def _set(data, path, value):
    _get(data, path[:-1])[path[-1]] = value


@st.composite
def mutated_reports(draw):
    report = copy.deepcopy(json.loads(_printed(draw(st.integers(0, len(BASES) - 1)))))
    paths = _paths(report)
    cm = report.get("countermodel")
    kinds = ["drop", "retype", "swap"] + (["copy-label", "flip-formula"] if cm else [])
    kinds += ["edit-claim"] if "sequent" in report else []
    kind = draw(st.sampled_from(kinds))
    if kind == "drop":
        path = draw(st.sampled_from([p for p in paths if isinstance(_get(report, p[:-1]), dict)]))
        del _get(report, path[:-1])[path[-1]]
    elif kind == "retype":
        path = draw(st.sampled_from(paths))
        old = _get(report, path)
        _set(report, path, draw(st.sampled_from([v for v in ODD_VALUES if type(v) is not type(old)])))
    elif kind == "swap":
        a, b = draw(st.sampled_from(paths)), draw(st.sampled_from(paths))
        if a[: len(b)] != b and b[: len(a)] != a:  # neither inside the other
            va, vb = _get(report, a), _get(report, b)
            _set(report, a, vb)
            _set(report, b, va)
    elif kind == "edit-claim":
        report["sequent"] = draw(st.sampled_from(CLAIMS))
    elif kind == "copy-label":
        worlds = sorted(cm["labels"])
        cm["labels"][draw(st.sampled_from(worlds))] = cm["labels"][draw(st.sampled_from(worlds))]
    else:
        world = draw(st.sampled_from(sorted(cm["labels"])))
        s = parse_sequent(cm["labels"][world])
        sides = [list(s.ante), list(s.succ)]
        side = draw(st.sampled_from([i for i in (0, 1) if sides[i]]))
        f = sides[side].pop(draw(st.integers(0, len(sides[side]) - 1)))
        sides[1 - side].append(f)
        cm["labels"][world] = print_sequent(Sequent(tuple(sides[0]), tuple(sides[1])))
    return report


def _claim_holds(report: dict) -> bool:
    """The countermodel report's model has a valid frame, and each label it
    carries holds at its world, as does the goal's failure at the root;
    evaluated formula by formula."""
    cm = report.get("countermodel", report)
    model = model_of_json(cm)
    if validate_frame(model):
        return False
    labels = cm.get("labels")
    if labels is None:
        return True
    cache: dict = {}
    for w, text in labels.items():
        s = parse_sequent(text)
        if not all(holds(model, w, f, cache) for f in s.ante) or any(holds(model, w, f, cache) for f in s.succ):
            return False
    return falsifies(model, cm["root"], parse_sequent(cm["goal"]), cache)


def _kernel_accepts(report) -> bool:
    """The report's derivation concludes what the report claims and the
    kernel accepts it: a prove report's sequent or a witness's |- false
    from the report's assumptions, or a countermodel report's reduction
    sequent from none.  A bare derivation is accepted with no assumptions."""
    if "derivation" not in report and "witness" not in report:
        check_derivation(derivation_from_json(report), ())
        return True
    assumptions = [parse_formula(a) for a in report.get("assumptions", [])]
    leaves = assumption_sequents(assumptions)
    if "derivation" in report:
        d, goal = derivation_from_json(report["derivation"]), parse_sequent(report["sequent"])
        claims = [(goal, leaves), (reduction_sequent(assumptions, goal), ())]
    else:
        d, claims = derivation_from_json(report["witness"]), [(parse_sequent("|- false"), leaves)]
    for conclusion, assumed in claims:
        if _multiset(d.conclusion) == _multiset(conclusion):
            check_derivation(d, assumed)
            return True
    return False


def _multiset(s: Sequent) -> tuple[Counter, Counter]:
    return Counter(s.ante), Counter(s.succ)


def _check(tmp_path, report) -> None:
    path = tmp_path / "report.json"
    path.write_text(json.dumps(report, ensure_ascii=False))
    code, _, err = _run("check-model", str(path))
    assert code in (0, 1, 2) and "Traceback" not in err
    if code == 0:
        assert _claim_holds(report)
    code, _, err = _run("check-proof", str(path))
    assert code in (0, 1, 2) and "Traceback" not in err
    if code == 0:
        assert _kernel_accepts(report)


def test_printed_reports_check_whole(tmp_path):
    for i, argv in enumerate(BASES):
        report = json.loads(_printed(i))
        path = tmp_path / "report.json"
        path.write_text(_printed(i))
        verb = "check-model" if "countermodel" in report else "check-proof"
        code, out, err = _run(verb, str(path))
        assert code == 0, (argv, out, err)


@settings(max_examples=200)
@given(report=mutated_reports())
def test_mutated_reports_keep_the_exit_code_contract(tmp_path_factory, report):
    _check(tmp_path_factory.mktemp("json"), report)


json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 2) | st.sampled_from(["", "h0", "p |- q", "|-", "Init", "p"]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(
        st.sampled_from(
            ["worlds", "acc", "eta", "val", "model", "labels", "goal", "root", "countermodel", "derivation",
             "witness", "assumptions", "rule", "conclusion", "principal", "children", "h0"]
        ),
        inner,
        max_size=4,
    ),
    max_leaves=12,
)


@given(data=json_values)
def test_random_json_keeps_the_exit_code_contract(tmp_path_factory, data):
    _check(tmp_path_factory.mktemp("json"), data)
