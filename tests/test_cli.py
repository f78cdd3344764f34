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
