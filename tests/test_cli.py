import json
import os
import subprocess
import sys

import pytest

from bmdl.cli import main

from conftest import CORPUS, REPO


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


def test_prove_accepts_and_emits_a_derivation(capsys):
    code, data = run(capsys, "prove", "|- []p -> p")
    assert code == 0
    assert data["derivable"] is True
    assert data["derivation"]["rule"] == "ImpR"
    assert data["sequent"] == "|- []p -> p"


def test_prove_rejects_with_a_countermodel(capsys):
    code, data = run(capsys, "prove", "|- O(p / q)")
    assert code == 1
    assert data["derivable"] is False
    assert data["countermodel"]["certified"] is True
    assert data["countermodel"]["root"] in data["countermodel"]["labels"]


def test_prove_reads_problem_files(capsys):
    code, data = run(capsys, "prove", str(CORPUS / "derived_obligation.mdl"))
    assert code == 0
    rules = {n["rule"] for n in _walk(data["derivation"])}
    assert "Assumption" in rules and "Cut" in rules
    assert data["assumptions"]


def test_prove_reads_a_problem_file_with_a_tab_after_its_directive(tmp_path, capsys):
    f = tmp_path / "tabbed.mdl"
    f.write_text("assume\tp -> q\ngoal\tp |- q\n")
    code, data = run(capsys, "prove", str(f))
    assert code == 0 and data["derivable"]
    assert data["assumptions"] == ["p -> q"]
    # without the .mdl suffix the directive alone marks it a problem file
    g = tmp_path / "tabbed.txt"
    g.write_text("goal\t|- p -> p\n")
    code, data = run(capsys, "prove", str(g))
    assert code == 0 and data["sequent"] == "|- p -> p"


@pytest.mark.parametrize("verb", ["prove", "countermodel", "consistent"])
def test_a_problem_file_that_repeats_its_goal_exits_2(verb, tmp_path, capsys):
    # the later goal does not silently replace the earlier one
    f = tmp_path / "twice.mdl"
    f.write_text("goal |- p\ngoal |- q\n")
    assert main([verb, str(f)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "2:1: repeated 'goal' directive" in captured.err
    f.write_text("mode prove\ngoal |- p -> p\nmode countermodel\n")
    assert main([verb, str(f)]) == 2
    assert "3:1: repeated 'mode' directive" in capsys.readouterr().err


def _walk(node):
    yield node
    for child in node["children"]:
        yield from _walk(child)


def test_prove_reads_sequent_files(capsys):
    code, data = run(capsys, "prove", str(CORPUS / "s4_4.seq"))
    assert code == 0 and data["derivable"]


def test_countermodel_verb_polarity(capsys):
    code, data = run(capsys, "countermodel", "p |- q")
    assert code == 0
    assert data["countermodel"]["model"]["worlds"]
    code, data = run(capsys, "countermodel", "|- p | ~p")
    assert code == 1
    assert "derivation" in data


def test_consistent_with_inline_assumptions(capsys):
    code, data = run(capsys, "consistent", "--assume", "p", "--assume", "~p")
    assert code == 1
    assert data["consistent"] is False
    assert data["witness"]["conclusion"] == "|- false"
    code, data = run(capsys, "consistent", "--assume", "O(p / q)")
    assert code == 0
    assert data["consistent"] is True
    assert data["countermodel"]["certified"] is True


def test_consistent_requires_input(capsys):
    assert main(["consistent"]) == 2


def test_a_problem_file_without_assumptions_is_the_empty_set(capsys):
    # decided as the corpus replays it: consistent, with a certified model
    code, data = run(capsys, "consistent", str(CORPUS / "empty.mdl"))
    assert code == 0
    assert data["assumptions"] == [] and data["consistent"] is True
    assert data["countermodel"]["certified"] is True


def test_check_model_valid_with_facts(capsys):
    code, data = run(
        capsys,
        "check-model",
        str(CORPUS / "m0.json"),
        "--holds",
        "w1::O(~hrm / ~false)",
        "--holds",
        "w1::[]O(sy / dhe)",
    )
    assert code == 0
    assert data["valid"] is True
    assert all(f["holds"] for f in data["facts"])


def test_check_model_reads_facts_in_unicode_symbols(capsys):
    ascii_facts = run(capsys, "check-model", str(CORPUS / "m0.json"), "--holds", "w1::O(~hrm / ~false)")
    unicode_facts = run(capsys, "check-model", str(CORPUS / "m0.json"), "--holds", "w1::O(¬hrm / ⊤)")
    assert unicode_facts == ascii_facts == (0, ascii_facts[1])
    assert ascii_facts[1]["facts"][0]["formula"] == "O(~hrm / true)"


def test_check_model_false_fact_flips_exit(capsys):
    code, data = run(capsys, "check-model", str(CORPUS / "m0.json"), "--holds", "w1::hrm")
    assert code == 1
    assert data["valid"] is True
    assert data["facts"][0]["holds"] is False


def test_check_model_bad_holds_syntax(capsys):
    assert main(["check-model", str(CORPUS / "m0.json"), "--holds", "w1"]) == 2


def test_check_model_close_rt(tmp_path, capsys):
    raw = {"worlds": ["a", "b"], "acc": [["a", "b"]]}
    f = tmp_path / "m.json"
    f.write_text(json.dumps(raw))
    code, data = run(capsys, "check-model", str(f))
    assert code == 1 and data["violations"]
    code, data = run(capsys, "check-model", str(f), "--close-rt")
    assert code == 0 and data["valid"] is True


def test_check_proof_verbs(capsys):
    code, data = run(capsys, "check-proof", str(CORPUS / "cut_contraction_demo.json"))
    assert code == 0
    assert data["checks"] is True
    assert data["rules"]["Cut"] == 1
    code, data = run(capsys, "check-proof", str(CORPUS / "bad_init.json"))
    assert code == 1
    assert "error" in data
    code, data = run(
        capsys,
        "check-proof",
        str(CORPUS / "boxed_assumption.json"),
        "--assume",
        "|- p",
    )
    assert code == 0


def printed(tmp_path, capsys, *argv) -> tuple[object, dict]:
    """Run a verb and save its stdout, as printed, to a file: (path, report)."""
    main(list(argv))
    out = capsys.readouterr().out
    path = tmp_path / "report.json"
    path.write_text(out)
    return path, json.loads(out)


@pytest.mark.parametrize(
    "argv",
    [
        ("countermodel", "[]p |- p & q"),
        ("prove", "O(p / q), O(q / r) |- O(p / r)"),
        ("prove", "--assume", "O(p / q)", "|- O(p & q / q)"),
        ("consistent", "--assume", "O(p / q)", "--assume", "[](q -> p)"),
    ],
)
def test_check_model_rechecks_a_printed_report_whole(tmp_path, capsys, argv):
    path, report = printed(tmp_path, capsys, *argv)
    code, data = run(capsys, "check-model", str(path))
    assert code == 0, data
    assert data["valid"] and data["audit"] == [] and data["goal_fails_at_root"] is True
    assert data["worlds"] == len(report["countermodel"]["model"]["worlds"])


@pytest.mark.parametrize(
    "argv, leaves",
    [
        (("prove", "|- []p -> p"), []),
        (("prove", "--assume", "p -> q", "p |- q"), ["|- p -> q"]),
        # the verb checked the reduction sequent outright, with no Assumption leaves
        (("countermodel", "--assume", "p -> q", "p |- q"), []),
        (("consistent", "--assume", "p", "--assume", "~p"), ["|- p", "|- ~p"]),
    ],
)
def test_check_proof_rechecks_a_printed_report_whole(tmp_path, capsys, argv, leaves):
    path, report = printed(tmp_path, capsys, *argv)
    code, data = run(capsys, "check-proof", str(path))
    assert code == 0, data
    assert data["checks"] is True
    assert data["assumptions"] == leaves


@pytest.mark.parametrize(
    "argv",
    [
        ("prove", "--assume", "[]r", "p, p -> q |- q"),
        ("prove", "--assume", "[]r", "p |- q"),
        ("countermodel", "--assume", "[]r", "p, p -> q |- q"),
        ("countermodel", "--assume", "[]r", "p |- q"),
        ("consistent", "--assume", "p", "--assume", "~p"),
        ("consistent", "--assume", "[]r", "--assume", "p -> q"),
    ],
)
def test_unicode_reports_check_again_as_the_ascii_reports_do(tmp_path, capsys, argv):
    """A report printed with --unicode has its sequent and assumptions in
    Unicode symbols, which the parser reads back: check-proof or
    check-model reports on it exactly what it reports on the ASCII one."""
    checked = []
    for flags in ((), ("--unicode",)):
        d = tmp_path / f"flags{len(flags)}"
        d.mkdir()
        path, report = printed(d, capsys, argv[0], *flags, *argv[1:])
        assert any(ord(c) > 127 for a in report["assumptions"] for c in a) == bool(flags)
        check = "check-model" if "countermodel" in report else "check-proof"
        checked.append((check, *run(capsys, check, str(path))))
    assert checked[0] == checked[1]
    assert checked[0][1] == 0, checked[0]


def _assumption_leaves(node) -> list[str]:
    return sorted(n["conclusion"] for n in _walk(node) if n["rule"] == "Assumption")


@pytest.mark.parametrize(
    "argv, cited",
    [
        (("prove", "--assume", "q", "p |- p"), []),
        (("prove", "--assume", "q", "--assume", "p -> r", "p |- r"), ["|- p -> r"]),
        (("consistent", str(CORPUS / "clash_bystander.mdl")), ["|- p", "|- ~p"]),
        (("consistent", str(CORPUS / "clash.mdl"), "--assume", "q"), ["|- p", "|- ~p"]),
    ],
)
def test_check_proof_rechecks_a_report_that_cites_part_of_its_assumptions(tmp_path, capsys, argv, cited):
    """A prove derivation or a witness cites only the assumptions its proof
    uses, while the report lists them all; check-proof accepts it."""
    path, report = printed(tmp_path, capsys, *argv)
    assert "q" in report["assumptions"]
    assert _assumption_leaves(report.get("derivation") or report["witness"]) == cited
    code, data = run(capsys, "check-proof", str(path))
    assert code == 0, data
    assert data["checks"] is True


@pytest.mark.parametrize("leaf, exit_code", [("q", 0), ("r", 1)])
def test_check_proof_refuses_an_assumption_leaf_outside_the_report_assumptions(tmp_path, capsys, leaf, exit_code):
    """The derivation of p |- p under the assumption q gains a Cut of a
    boxed Assumption leaf: one of the report's assumptions checks, any
    other formula is refused."""
    path, report = printed(tmp_path, capsys, "prove", "--assume", "q", "p |- p")
    report["derivation"] = {
        "rule": "Cut",
        "principal": [f"[]{leaf}"],
        "conclusion": "p |- p",
        "children": [
            {
                "rule": "Four",
                "principal": [f"[]{leaf}"],
                "conclusion": f"|- []{leaf}",
                "children": [{"rule": "Assumption", "principal": [], "conclusion": f"|- {leaf}", "children": []}],
            },
            {
                "rule": "WeakL",
                "principal": [f"[]{leaf}"],
                "conclusion": f"[]{leaf}, p |- p",
                "children": [report["derivation"]],
            },
        ],
    }
    path.write_text(json.dumps(report))
    code, data = run(capsys, "check-proof", str(path))
    assert code == exit_code, data
    assert data["checks"] is (exit_code == 0)
    if exit_code:
        assert "not an assumption" in data["error"]


def test_repeated_assumptions_are_merged_as_in_a_problem_file(tmp_path, capsys):
    """--assume formulas that repeat an assumption are dropped, the first
    occurrence kept, as parse_problem merges repeated assume lines."""
    code, data = run(capsys, "consistent", str(CORPUS / "clash.mdl"), "--assume", "p")
    assert code == 1 and data["assumptions"] == ["p", "~p"]
    main(["consistent", str(CORPUS / "clash.mdl")])
    plain = capsys.readouterr().out
    main(["consistent", str(CORPUS / "clash.mdl"), "--assume", "p"])
    assert capsys.readouterr().out == plain
    code, data = run(capsys, "consistent", "--assume", "q", "--assume", "p", "--assume", "q")
    assert code == 0 and data["assumptions"] == ["q", "p"]
    problem = tmp_path / "twice.mdl"
    problem.write_text("assume q\nassume p -> q\ngoal p |- q\n")
    cases = [
        (("prove", "--assume", "q", "--assume", "q", "p |- q"), ["q"]),
        (("prove", str(problem), "--assume", "q"), ["q", "p -> q"]),
    ]
    for argv, assumptions in cases:
        code, data = run(capsys, *argv)
        assert code == 0 and data["assumptions"] == assumptions
        assert _assumption_leaves(data["derivation"]) == ["|- q"]


def test_check_proof_refuses_a_report_stripped_of_its_assumptions(tmp_path, capsys):
    path, report = printed(tmp_path, capsys, "prove", "--assume", "p -> q", "p |- q")
    report["assumptions"] = []
    path.write_text(json.dumps(report))
    code, data = run(capsys, "check-proof", str(path))
    assert code == 1 and "error" in data


def test_check_proof_refuses_a_report_whose_sequent_the_derivation_does_not_conclude(tmp_path, capsys):
    path, report = printed(tmp_path, capsys, "prove", "|- []p -> p")
    report["sequent"] = "|- p"
    path.write_text(json.dumps(report))
    code, data = run(capsys, "check-proof", str(path))
    assert code == 1 and data["checks"] is False
    assert data["error"] == "the derivation concludes |- []p -> p, not |- p"


def test_check_proof_refuses_assumption_leaves_under_a_reduction_sequent(tmp_path, capsys):
    # the prove derivation of p |- q, which uses |- p -> q as a leaf, weakened
    # to the reduction sequent that the countermodel verb derives outright
    _, proved = printed(tmp_path, capsys, "prove", "--assume", "p -> q", "p |- q")
    path, report = printed(tmp_path, capsys, "countermodel", "--assume", "p -> q", "p |- q")
    report["derivation"] = {
        "rule": "WeakL",
        "principal": ["[](p -> q)"],
        "conclusion": report["derivation"]["conclusion"],
        "children": [proved["derivation"]],
    }
    path.write_text(json.dumps(report))
    code, data = run(capsys, "check-proof", str(path))
    assert code == 1 and data["assumptions"] == [] and "not an assumption" in data["error"]


def test_check_proof_refuses_a_witness_of_something_other_than_false(tmp_path, capsys):
    path, report = printed(tmp_path, capsys, "consistent", "--assume", "p", "--assume", "~p")
    report["witness"] = report["witness"]["children"][0]
    path.write_text(json.dumps(report))
    code, data = run(capsys, "check-proof", str(path))
    assert code == 1 and "not |- false" in data["error"]


def test_check_model_refuses_a_label_the_model_contradicts(tmp_path, capsys):
    path, report = printed(tmp_path, capsys, "countermodel", "O(p / q) |- O(r / s)")
    labels = report["countermodel"]["labels"]
    root = report["countermodel"]["root"]
    assert labels[root] == "q, O(p / q) |- O(r / s)"
    labels[root] = "O(p / q) |- q, O(r / s)"  # q is true at the root
    path.write_text(json.dumps(report))
    code, data = run(capsys, "check-model", str(path))
    assert code == 1
    assert data["valid"] is True and data["audit"] == [f"{root}: right formula q is true in the model"]


def test_check_model_audit_prints_formulas_as_the_report_asks(tmp_path, capsys):
    path, report = printed(tmp_path, capsys, "countermodel", "O(p / q) |- O(r / s)")
    root = report["countermodel"]["root"]
    report["countermodel"]["labels"][root] = "~q, O(p / q) |- O(r / s)"  # q is true at the root
    path.write_text(json.dumps(report))
    code, data = run(capsys, "check-model", "--unicode", str(path))
    assert code == 1
    assert data["audit"] == [f"{root}: left formula ¬q is false in the model"]


def test_check_model_refuses_a_report_whose_goal_holds_at_its_root(tmp_path, capsys):
    path, report = printed(tmp_path, capsys, "countermodel", "p |- q")
    report["countermodel"]["goal"] = "p |- p"
    path.write_text(json.dumps(report))
    code, data = run(capsys, "check-model", str(path))
    assert code == 1 and data["audit"] == [] and data["goal_fails_at_root"] is False


@pytest.mark.parametrize(
    "labels",
    [
        ["p |- q"],
        {"h0": 3},
        {"h0": "p |- q", "h9": "|-"},
        {},
        {"h0": "p |- q &"},
    ],
)
def test_check_model_refuses_malformed_labels_with_exit_2(tmp_path, capsys, labels):
    # the countermodel object alone, as a model file would carry it
    path, report = printed(tmp_path, capsys, "countermodel", "p |- q")
    report["countermodel"]["labels"] = labels
    path.write_text(json.dumps(report["countermodel"]))
    assert main(["check-model", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err


def test_check_model_keeps_its_checks_for_a_report_without_labels(tmp_path, capsys):
    # without labels there is no claim to audit: only the frame is checked,
    # and a goal the model does not refute is not read
    path, report = printed(tmp_path, capsys, "countermodel", "p |- q")
    del report["countermodel"]["labels"]
    report["countermodel"]["goal"] = "p |- p"
    path.write_text(json.dumps(report))
    code, data = run(capsys, "check-model", str(path))
    assert code == 0
    assert data == {"valid": True, "worlds": 1, "violations": []}


def test_parse_errors_exit_2(capsys):
    assert main(["prove", "|- p &"]) == 2
    assert main(["prove", "--assume", "p q", "|- p"]) == 2


def test_missing_files_exit_2(capsys):
    assert main(["check-model", "no-such.json"]) == 2
    assert main(["check-proof", "no-such.json"]) == 2


@pytest.mark.parametrize("verb", ["check-model", "check-proof"])
def test_a_directory_for_a_report_file_exits_2(verb, tmp_path, capsys):
    assert main([verb, str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("bmdl: ")


def test_budget_exhaustion_exits_3(capsys):
    code = main(["prove", "--budget", "4", "|- ([](p -> q) & O(p / r)) -> O(q / r)"])
    captured = capsys.readouterr()
    assert code == 3
    assert json.loads(captured.out)["inconclusive"] is True


def test_budget_env_var(capsys, monkeypatch):
    monkeypatch.setenv("MDL_BUDGET", "4")
    assert main(["prove", "|- ([](p -> q) & O(p / r)) -> O(q / r)"]) == 3
    capsys.readouterr()
    monkeypatch.setenv("MDL_BUDGET", "zero")
    with pytest.raises(SystemExit):
        main(["prove", "|- p"])


def test_bad_budget_env_var_is_a_usage_error():
    env = dict(os.environ, MDL_BUDGET="zero", PYTHONPATH=str(REPO / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "bmdl", "prove", "|- p"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2
    assert "MDL_BUDGET must be a positive integer, got 'zero'" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_library_imports_leave_argparse_out():
    # only the command line parser needs argparse; -S keeps site hooks out
    code = "import sys, bmdl, bmdl.cli, bmdl.corpus; print('argparse' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    proc = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def _usage_error(capsys, *argv) -> str:
    """Run argv, which argparse must refuse: exit 2 and no traceback.
    Returns stderr."""
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert "Traceback" not in err
    return err


@pytest.mark.parametrize("budget", ["0", "-3", "many"])
def test_a_budget_flag_that_is_not_positive_is_a_usage_error(capsys, budget):
    err = _usage_error(capsys, "prove", "|- p", "--budget", budget)
    assert f"must be a positive integer, got '{budget}'" in err


def test_verbs_that_do_not_search_ignore_the_budget_env_var(capsys, monkeypatch):
    monkeypatch.setenv("MDL_BUDGET", "abc")
    assert main(["check-proof", str(CORPUS / "example1_derivation.json")]) == 0
    assert main(["check-model", str(CORPUS / "m0.json")]) == 0


@pytest.mark.parametrize(
    "argv", [["prove", "|- p", "--atomic-init"], ["consistent", "--assume", "p", "--no-model"]]
)
def test_removed_flags_are_usage_errors(capsys, argv):
    _usage_error(capsys, *argv)


def test_long_literal_sequents_are_not_file_names(capsys):
    text = ", ".join(f"p{i}" for i in range(800)) + " |- p0"
    assert len(text) > 4096
    code, data = run(capsys, "prove", text)
    assert code == 0
    assert data["derivation"]["rule"] == "Init"
    assert main(["consistent", text]) == 2


@pytest.mark.parametrize(
    "text, message",
    [
        ("|- " + "~" * 1200 + "p", "nested more than 200 levels"),
        ("|- " + "(" * 1500 + "p" + ")" * 1500, "nested more than 200 levels"),
        # parsed without recursion, but too deep for the recursive passes after it
        ("p |- " + " & ".join(["p"] * 3000), "nested too deeply"),
    ],
    ids=["1200-negations", "1500-parentheses", "3000-conjuncts"],
)
def test_deeply_nested_input_exits_2(tmp_path, text, message):
    f = tmp_path / "deep.seq"
    f.write_text(text + "\n")
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "bmdl", "prove", str(f)],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2
    assert message in proc.stderr
    assert "Traceback" not in proc.stderr


def test_malformed_derivation_json_exits_2(tmp_path, capsys):
    f = tmp_path / "d.json"
    f.write_text(json.dumps({"rule": "Init", "principal": ["p"], "children": []}))
    assert main(["check-proof", str(f)]) == 2
    assert '"conclusion"' in capsys.readouterr().err


@pytest.mark.parametrize("assumptions", ["p -> q", ["p -> q", 5], {"p -> q": True}], ids=["string", "number", "object"])
def test_a_report_whose_assumptions_are_not_formula_strings_exits_2(tmp_path, capsys, assumptions):
    path, report = printed(tmp_path, capsys, "prove", "--assume", "p -> q", "p |- q")
    report["assumptions"] = assumptions
    path.write_text(json.dumps(report))
    assert main(["check-proof", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert 'malformed report: "assumptions" must be a list of formulas' in captured.err
    assert "Traceback" not in captured.err


def test_pretty_and_unicode_flags(capsys):
    code = main(["prove", "--pretty", "--unicode", "|- []p -> p"])
    out = capsys.readouterr().out
    assert code == 0
    assert "\n  " in out
    assert "⊢ □p → p" in out


def test_corpus_verb(tmp_path, capsys):
    mini = tmp_path / "corpus"
    mini.mkdir()
    (mini / "one.seq").write_text("|- p -> p\n")
    (mini / "manifest.json").write_text(
        json.dumps(
            {
                "entries": [
                    {"file": "one.seq", "kind": "sequent", "expect": {"derivable": True}}
                ]
            }
        )
    )
    code, data = run(capsys, "corpus", str(mini))
    assert code == 0
    assert data["passed"] == data["total"] == 1
    (mini / "manifest.json").write_text(
        json.dumps(
            {
                "entries": [
                    {"file": "one.seq", "kind": "sequent", "expect": {"derivable": False}}
                ]
            }
        )
    )
    code = main(["corpus", str(mini)])
    capsys.readouterr()
    assert code == 1


def test_a_corpus_that_only_ran_out_of_budget_exits_3(capsys):
    # every entry that fails at this budget fails for want of steps, and
    # none on a verdict or a check: that is no negative answer
    code, data = run(capsys, "corpus", str(CORPUS), "--budget", "3")
    assert code == 3
    failed = [e for e in data["entries"] if not e["ok"]]
    assert failed and all(e["detail"] == "budget exhausted" for e in failed)


def test_a_corpus_failure_on_a_verdict_outranks_one_on_budget(tmp_path, capsys):
    (tmp_path / "one.seq").write_text("|- p -> p\n")
    (tmp_path / "hard.seq").write_text("|- " + "[]~" * 8 + "p\n")
    entries = [
        {"file": "hard.seq", "kind": "sequent", "expect": {"derivable": False}},
        {"file": "one.seq", "kind": "sequent", "expect": {"derivable": True}},
    ]
    (tmp_path / "manifest.json").write_text(json.dumps({"entries": entries}))
    code, data = run(capsys, "corpus", str(tmp_path), "--budget", "20")
    assert code == 3
    assert [e["ok"] for e in data["entries"]] == [False, True]
    entries[1]["expect"]["derivable"] = False
    (tmp_path / "manifest.json").write_text(json.dumps({"entries": entries}))
    code, data = run(capsys, "corpus", str(tmp_path), "--budget", "20")
    assert code == 1
    assert [e["detail"] for e in data["entries"]][0] == "budget exhausted"


@pytest.mark.parametrize(
    "raw",
    [
        "5",
        '{"worlds": "ab"}',
        '{"worlds": [1, 2]}',
        '{"worlds": ["a"], "eta": []}',
        # a string where a list of names belongs is not read as its letters
        '{"worlds": ["a"], "acc": [["a", "a"]], "val": {"a": "pq"}}',
        '{"worlds": ["a"], "eta": {"a": [{"base": "a", "cond": ["a"]}]}}',
        '{"worlds": ["a"], "eta": {"a": [{"base": ["a"], "cond": "a"}]}}',
        '{"worlds": ["a"], "acc": ["aa"]}',
    ],
    ids=[
        "number",
        "worlds-string",
        "worlds-numbers",
        "eta-list",
        "val-string",
        "base-string",
        "cond-string",
        "acc-string",
    ],
)
def test_malformed_model_json_exits_2(tmp_path, capsys, raw):
    f = tmp_path / "m.json"
    f.write_text(raw)
    assert main(["check-model", str(f)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "bmdl: malformed model data" in captured.err
    assert "Traceback" not in captured.err


def _model_entry(expect):
    return {"entries": [{"file": "m.json", "kind": "model", "expect": expect}]}


@pytest.mark.parametrize(
    "manifest",
    [
        [],
        {"entries": 5},
        {"entries": [5]},
        {"entries": [{"kind": "sequent", "expect": {"derivable": True}}]},
        {"entries": [{"file": "one.seq", "kind": "sequent", "expect": [True]}]},
        _model_entry({"valid": True, "facts": [{"formula": "p"}]}),
        _model_entry({"facts": [{"world": "a", "formula": 5}]}),
        _model_entry({"facts": [{"world": "a", "formula": "p", "holds": "no"}]}),
        _model_entry({"facts": {"world": "a", "formula": "p"}}),
        {"entries": [{"file": "one.seq", "kind": "derivation", "expect": {"assumptions": [5]}}]},
    ],
    ids=[
        "list",
        "entries-number",
        "entry-number",
        "no-file",
        "expect-list",
        "fact-without-world",
        "fact-formula-number",
        "fact-holds-string",
        "facts-object",
        "assumption-number",
    ],
)
def test_malformed_manifest_exits_2(tmp_path, capsys, manifest):
    (tmp_path / "one.seq").write_text("|- p -> p\n")
    (tmp_path / "m.json").write_text('{"worlds": ["a"], "acc": [["a", "a"]]}')
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    assert main(["corpus", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "manifest.json: " in captured.err
    assert "Traceback" not in captured.err


def test_a_certificate_that_fails_its_check_exits_2(monkeypatch, capsys):
    # an internal fault, not bad input and not a verdict: it never exits 1
    monkeypatch.setattr("bmdl.countermodel.validate_frame", lambda m: ["forced violation"])
    assert main(["prove", "|- O(p / q)"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "bmdl: frame validation failed: forced violation" in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize(
    "argv",
    [("countermodel", "|- p"), ("consistent", "--assume", "p")],
    ids=["countermodel", "consistent"],
)
def test_check_proof_on_a_report_that_holds_a_countermodel_exits_2(tmp_path, capsys, argv):
    path, report = printed(tmp_path, capsys, *argv)
    assert "countermodel" in report and "derivation" not in report and "witness" not in report
    assert main(["check-proof", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "bmdl: the report holds a countermodel and no proof; check it with check-model\n"


# Each verb that reads a file, with the file it reads: (argv, file name, text).
_READING_VERBS = [
    (["prove", "{}"], "goal.seq", "# a sequent file\n¬p ⊢ ¬p\n"),
    (["consistent", "{}"], "set.mdl", "assume p\nassume ¬□q  # Unicode symbols\n"),
    (["check-model", "{}"], "m.json", None),
    (["check-proof", "{}"], "d.json", None),
    (["corpus", "{}"], "corpus", None),
]


def _reading_verb_input(tmp_path, capsys, name, text, bom=False):
    """Write the file a reading verb reads, in UTF-8 with non-ASCII text,
    and with a byte-order mark if bom: its path."""
    mark = "﻿" if bom else ""
    path = tmp_path / name
    if name == "corpus":
        path.mkdir()
        (path / "goal.seq").write_text(mark + "¬p ⊢ ¬p\n", encoding="utf-8")
        manifest = {"entries": [{"file": "goal.seq", "kind": "sequent", "expect": {"derivable": True}}]}
        (path / "manifest.json").write_text(mark + json.dumps(manifest), encoding="utf-8")
        return path
    if text is None:
        argv = ["countermodel", "q |- p"] if name == "m.json" else ["prove", "p |- q"]
        main([argv[0], "--unicode", "--assume", "□(p → q)", argv[1]])
        text = capsys.readouterr().out
        assert any(ord(c) > 127 for c in text)
    path.write_text(mark + text, encoding="utf-8")
    return path


@pytest.mark.parametrize("argv, name, text", _READING_VERBS, ids=[a[0] for a, _, _ in _READING_VERBS])
def test_reading_verbs_read_utf8_whatever_the_locale(tmp_path, capsys, argv, name, text):
    """Every file a verb reads is read as UTF-8, not in the locale's
    encoding: no EncodingWarning under -X warn_default_encoding, and the
    same exit code under a locale that is not UTF-8."""
    path = _reading_verb_input(tmp_path, capsys, name, text)
    args = [a.format(path) for a in argv]
    expected = main(list(args))
    capsys.readouterr()
    assert expected == 0
    flags = ["-X", "warn_default_encoding", "-W", "error::EncodingWarning"]
    for locale in ("C.UTF-8", "C"):
        # neither UTF-8 mode nor locale coercion may turn the C locale into UTF-8
        env = dict(
            os.environ, PYTHONPATH=str(REPO / "src"), LC_ALL=locale,
            PYTHONUTF8="0", PYTHONCOERCECLOCALE="0", PYTHONIOENCODING="utf-8",
        )
        proc = subprocess.run(
            [sys.executable, *flags, "-m", "bmdl", *args], env=env, capture_output=True, text=True, timeout=60
        )
        assert (proc.returncode, proc.stderr) == (expected, ""), locale


@pytest.mark.parametrize("argv, name, text", _READING_VERBS, ids=[a[0] for a, _, _ in _READING_VERBS])
def test_a_file_with_a_byte_order_mark_reads_as_without_one(tmp_path, capsys, argv, name, text):
    reports = []
    for bom in (False, True):
        d = tmp_path / f"bom{int(bom)}"
        d.mkdir()
        path = _reading_verb_input(d, capsys, name, text, bom=bom)
        code = main([a.format(path) for a in argv])
        reports.append((code, capsys.readouterr().out.replace(str(d), "DIR")))
    assert reports[0] == reports[1]
    assert reports[0][0] == 0
