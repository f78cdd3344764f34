import random

from bmdl.consistency import (
    assumption_sequents,
    check_consistency,
    discharge,
    reduction_sequent,
)
from bmdl.calculus import RuleId
from bmdl.formula import Atom, BOT, Box, Neg, Obl, Sequent
from bmdl.gen import random_assumptions, random_sequent
from bmdl.kernel import check_derivation
from bmdl.parser import parse_formula, parse_sequent
from bmdl.search import prove
from bmdl.semantics import holds

p, q = Atom("p"), Atom("q")


def test_reduction_boxes_the_assumptions():
    goal = Sequent((q,), (p,))
    s = reduction_sequent([p, Neg(q)], goal)
    assert s == Sequent((Box(p), Box(Neg(q)), q), (p,))
    assert reduction_sequent([]) == Sequent((), (BOT,))


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
