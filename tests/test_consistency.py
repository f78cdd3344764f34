import random

import pytest

from bmdl import formula
from bmdl.cli import decide_consistency, decide_goal
from bmdl.consistency import (
    FALSUM_SEQUENT,
    assumption_sequents,
    check_consistency,
    discharge,
    reduction_sequent,
)
from bmdl.calculus import RuleId
from bmdl.formula import And, Atom, BOT, Box, Imp, Neg, Obl, Sequent
from bmdl.gen import random_assumptions, random_sequent
from bmdl.kernel import check_derivation, derivation_from_json
from bmdl.parser import parse_formula, parse_problem, parse_sequent, print_formula, print_sequent
from bmdl.search import prove
from bmdl.semantics import holds

from conftest import CORPUS

p, q = Atom("p"), Atom("q")


def test_reduction_boxes_the_assumptions():
    goal = Sequent((q,), (p,))
    s = reduction_sequent([p, Neg(q)], goal)
    assert s == Sequent((Box(p), Box(Neg(q)), q), (p,))
    assert reduction_sequent([]) == Sequent((), (BOT,))


def test_reduction_boxes_are_filled_nodes():
    """Each box is filled when it is made, over assumptions built anywhere:
    by the constructors, never filled, or by the parser."""
    built = [Imp(p, Box(q)), Obl(And(p, q), Neg(p)), p]
    parsed = [parse_formula(print_formula(a)) for a in built]
    for assumptions in (built, parsed):
        boxes = reduction_sequent(assumptions).ante
        assert boxes == tuple(Box(a) for a in assumptions)
        for box, a in zip(boxes, assumptions):
            assert box.f is a
            assert box._k == formula.sort_key(Box(a)) and box._h == hash(Box(a))
            assert box._t is None


def _cut_chain(witness, n):
    """The n Cuts of a discharged witness, innermost (the first used
    assumption's) first, and the reduction derivation beneath them."""
    cuts, d = [], witness
    for _ in range(n):
        assert d.rule is RuleId.CUT
        cuts.append(d)
        d = d.children[1]
    return cuts[::-1], d


def test_witness_holds_the_reduction_boxes():
    """A witness cuts one box for each distinct assumption its proof uses,
    in the assumptions' order, and no other; every Cut principal, Four
    conclusion and Cut conclusion holds the very box objects of the
    reduction it discharges."""
    clash, obligations = (
        parse_problem((CORPUS / f).read_text()).assumptions for f in ("clash.mdl", "conflicting_obligations.mdl")
    )
    cases = [(clash, clash), (obligations, obligations), ((p, Neg(p), Box(q), p), (p, Neg(p)))]
    for assumptions, used in cases:
        res = check_consistency(assumptions)
        assert not res.consistent
        n = len(used)
        cuts, reduction = _cut_chain(res.witness, n)
        assert reduction.rule is not RuleId.CUT
        boxes = reduction.conclusion.ante
        assert boxes == tuple(Box(a) for a in used)
        for i, cut in enumerate(cuts):
            four = cut.children[0]
            assert four.rule is RuleId.FOUR
            assert cut.principal[0] is boxes[i]
            assert four.conclusion.succ[0] is boxes[i] and four.principal[0] is boxes[i]
            assert all(x is y for x, y in zip(cut.conclusion.ante, boxes[i + 1 :]))
            assert len(cut.conclusion.ante) == n - i - 1


def _assumption_leaves(d) -> list:
    """The formula of each Assumption leaf of d, in tree order."""
    leaves, todo = [], [d]
    while todo:
        node = todo.pop()
        if node.rule is RuleId.ASSUMPTION:
            leaves.append(node.conclusion.succ[0])
        todo.extend(reversed(node.children))
    return leaves


def _cuts_of(d) -> list:
    """The principal of each Cut of d."""
    cuts, todo = [], [d]
    while todo:
        node = todo.pop()
        if node.rule is RuleId.CUT:
            cuts.append(node.principal[0])
        todo.extend(node.children)
    return cuts


def test_an_unused_assumption_gets_no_cut():
    """prove "p |- p" --assume q, and clash.mdl with q assumed besides:
    q takes no part in the proof, so the certificate cites no q and cuts
    no [] q, and it checks from the leaves it cites alone."""
    code, report = decide_goal((q,), parse_sequent("p |- p"), 100_000)
    assert code == 0 and report["assumptions"] == ["q"]
    d = derivation_from_json(report["derivation"])
    assert d.rule is RuleId.INIT and not _cuts_of(d) and not _assumption_leaves(d)
    assert check_derivation(d)

    assumptions = parse_problem((CORPUS / "clash.mdl").read_text()).assumptions + (q,)
    res = check_consistency(assumptions)
    assert not res.consistent
    assert _cuts_of(res.witness) == [Box(Neg(p)), Box(p)]
    assert sorted(map(print_formula, _assumption_leaves(res.witness))) == ["p", "~p"]
    assert check_derivation(res.witness, assumption_sequents(assumptions[:2]))


def test_a_used_box_the_goal_already_holds_gets_no_cut():
    """The goal's antecedent holds [] p itself, so the assumption p, though
    its box is used, is not cut: the derivation concludes the goal with no
    Assumption leaf."""
    goal = parse_sequent("[]p |- p")
    res = prove(reduction_sequent((p,), goal), hypotheses=1)
    assert res.accepted and res.sequent == reduction_sequent((p,), goal)
    assert res.derivation.conclusion == goal
    d = discharge(res.derivation, (p,), goal)
    assert d == res.derivation
    code, report = decide_goal((p, q), goal, 100_000)
    assert code == 0
    d = derivation_from_json(report["derivation"])
    assert d.conclusion == goal and not _cuts_of(d) and not _assumption_leaves(d)
    assert check_derivation(d)


def test_cited_assumptions_are_the_used_ones():
    """Random sets and assumption/goal pairs: the certificate's Assumption
    leaves are the formulas of its Cuts, one per distinct used box, a
    subset of the assumptions, and it checks from those leaves alone; the
    reduction's full derivation cites them all."""
    rng = random.Random(17)
    seen = trimmed = 0
    while seen < 30:
        assumptions = tuple(random_assumptions(rng, rng.randint(1, 4), size=4, modal_depth=2))
        goal = random_sequent(rng, size=3) if rng.random() < 0.5 else FALSUM_SEQUENT
        full = prove(reduction_sequent(assumptions, goal), 100_000)
        res = prove(reduction_sequent(assumptions, goal), 100_000, hypotheses=len(assumptions))
        assert res.accepted == full.accepted and res.steps_used == full.steps_used
        if not res.accepted:
            continue
        seen += 1
        d = discharge(res.derivation, assumptions, goal)
        cited = _assumption_leaves(d)
        assert sorted(map(print_formula, cited)) == sorted(print_formula(b.f) for b in _cuts_of(d))
        assert len(set(cited)) == len(cited) and set(cited) <= set(assumptions)
        trimmed += len(cited) < len(set(assumptions))
        assert not any(Box(a) in goal.ante for a in cited)
        assert d.conclusion == goal
        assert check_derivation(d, assumption_sequents(cited))
        assert set(_assumption_leaves(discharge(full.derivation, assumptions, goal))) == set(assumptions)
    assert trimmed  # some proofs leave an assumption unused


def _count_fills(monkeypatch) -> list:
    """Count the lazy fills (formula._fill) from now on."""
    calls = []
    lazy = formula._fill

    def spy(f):
        calls.append(f)
        lazy(f)

    monkeypatch.setattr(formula, "_fill", spy)
    return calls


def test_consistency_verdicts_fill_nothing_lazily(monkeypatch):
    """Sets read as the CLI reads them: no node of the reduction, the search,
    the witness or the report is filled lazily."""
    sets = [parse_problem(path.read_text()).assumptions for path in sorted(CORPUS.glob("*.mdl"))]
    rng = random.Random(5)
    for _ in range(40):
        drawn = random_assumptions(rng, rng.randint(1, 4), size=4, modal_depth=2)
        sets.append(parse_problem("".join(f"assume {print_formula(a)}\n" for a in drawn)).assumptions)
    calls = _count_fills(monkeypatch)
    codes = {decide_consistency(assumptions, 100_000)[0] for assumptions in sets}
    assert codes == {0, 1}
    assert calls == []


def test_goals_under_assumptions_fill_nothing_lazily(monkeypatch):
    """prove and countermodel with --assume formulas, derivable or not."""
    rng = random.Random(6)
    cases = []
    for _ in range(40):
        drawn = random_assumptions(rng, rng.randint(1, 3), size=3, modal_depth=2)
        assumptions = tuple(parse_formula(print_formula(a)) for a in drawn)
        cases.append((assumptions, parse_sequent(print_sequent(random_sequent(rng, size=4)))))
    calls = _count_fills(monkeypatch)
    derivable = [
        decide_goal(a, goal, 100_000, affirm_derivable=affirm)[1]["derivable"]
        for a, goal in cases
        for affirm in (True, False)
    ]
    assert True in derivable and False in derivable
    assert calls == []


def test_assumption_sequents_shape():
    assert assumption_sequents([p, q]) == (Sequent((), (p,)), Sequent((), (q,)))


def test_empty_and_harmless_sets_are_consistent():
    for assumptions in ([], [p], [p, Obl(q, p)]):
        res = check_consistency(assumptions)
        assert res.consistent and res.countermodel.certified


def test_contradictory_atoms_are_inconsistent():
    res = check_consistency([p, Neg(p)])
    assert not res.consistent
    assert res.witness.conclusion == Sequent((), (BOT,))
    assert check_derivation(res.witness, assumption_sequents(res.assumptions))
    used = res.witness.rules_used()
    assert used[RuleId.CUT] == 2
    assert used[RuleId.ASSUMPTION] == 2


def test_conflicting_obligations_are_inconsistent():
    a = [parse_formula("O(p / ~false)"), parse_formula("O(~p / ~false)")]
    res = check_consistency(a)
    assert not res.consistent
    assert check_derivation(res.witness, assumption_sequents(res.assumptions))
    assert res.witness.rules_used()[RuleId.D2] >= 1


def test_consistent_sets_come_with_a_witness_model():
    res = check_consistency([parse_formula("O(p / q)")])
    assert res.consistent
    cm = res.countermodel
    assert cm is not None and cm.certified
    assert holds(cm.model, cm.root, Box(Obl(p, q)))


def test_derives_and_discharge_agree():
    assumptions = (parse_formula("[](p -> q)"), parse_formula("O(p / r)"))
    goal = parse_sequent("|- O(q / r)")
    res = prove(reduction_sequent(assumptions, goal))
    assert res.accepted
    d = discharge(res.derivation, assumptions, goal)
    assert d.conclusion == goal
    assert check_derivation(d, assumption_sequents(assumptions))
    leaves = d.rules_used()
    assert leaves[RuleId.ASSUMPTION] == len(assumptions)


def test_discharge_is_the_identity_without_assumptions():
    goal = parse_sequent("|- p -> p")
    res = prove(reduction_sequent((), goal))
    assert discharge(res.derivation, (), goal) == res.derivation


def test_discharge_refuses_a_leading_formula_that_boxes_no_assumption():
    goal = parse_sequent("|- p -> p")
    res = prove(reduction_sequent((q,), goal))
    assert res.accepted
    for lead in ((Box(p),), (q,), (Box(q), Neg(q))):
        reduction = res.derivation._replace(conclusion=Sequent(lead, goal.succ))
        with pytest.raises(ValueError, match="boxes no assumption"):
            discharge(reduction, (q,), goal)


def test_random_accepted_reductions_discharge_cleanly():
    rng = random.Random(3)
    done = 0
    while done < 25:
        assumptions = random_assumptions(rng, rng.randint(0, 3))
        goal = random_sequent(rng, size=4)
        res = prove(reduction_sequent(assumptions, goal), 400_000)
        if not res.accepted:
            continue
        d = discharge(res.derivation, assumptions, goal)
        assert d.conclusion == goal
        assert check_derivation(d, assumption_sequents(assumptions))
        done += 1


def test_consistency_matches_plain_search_on_the_reduction():
    rng = random.Random(9)
    for _ in range(30):
        assumptions = random_assumptions(rng, rng.randint(0, 3))
        expected = not prove(reduction_sequent(assumptions, Sequent((), (BOT,)))).accepted
        assert check_consistency(assumptions).consistent == expected
