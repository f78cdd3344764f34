import random

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
from bmdl.kernel import check_derivation
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
    """The n Cuts of a discharged witness, innermost (the first assumption's)
    first, and the reduction derivation beneath them."""
    cuts, d = [], witness
    for _ in range(n):
        assert d.rule is RuleId.CUT
        cuts.append(d)
        d = d.children[1]
    return cuts[::-1], d


def test_witness_holds_the_reduction_boxes():
    """Every Cut principal, Four conclusion and Cut conclusion of a witness
    holds the very box objects of the reduction it discharges."""
    sets = [parse_problem((CORPUS / f).read_text()).assumptions for f in ("clash.mdl", "conflicting_obligations.mdl")]
    sets.append((p, Neg(p), Box(q), p))
    for assumptions in sets:
        res = check_consistency(assumptions)
        assert not res.consistent
        n = len(assumptions)
        cuts, reduction = _cut_chain(res.witness, n)
        boxes = reduction.conclusion.ante[:n]
        assert boxes == tuple(Box(a) for a in assumptions)
        for i, cut in enumerate(cuts):
            four = cut.children[0]
            assert four.rule is RuleId.FOUR
            assert cut.principal[0] is boxes[i]
            assert four.conclusion.succ[0] is boxes[i] and four.principal[0] is boxes[i]
            assert all(x is y for x, y in zip(cut.conclusion.ante, boxes[i + 1 :]))
            assert len(cut.conclusion.ante) == n - i - 1


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
