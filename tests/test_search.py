import random

import pytest
from hypothesis import given, settings

from bmdl.calculus import one_premiss_static_applications
from bmdl.formula import (
    And,
    Atom,
    BOT,
    Box,
    Neg,
    Obl,
    Or,
    Sequent,
    set_sequent,
    to_set_sequent,
)
from bmdl.gen import random_formula, random_sequent
from bmdl.kernel import check_derivation
from bmdl.parser import parse_sequent
from bmdl.search import (
    Budget,
    BudgetExceeded,
    closure_of,
    decide,
    prove,
    saturate,
)
from bmdl.calculus import RuleId

from conftest import sequents

p, q = Atom("p"), Atom("q")

DERIVABLE = [
    "|- ([](p -> q) & O(p / r)) -> O(q / r)",
    "|- [](q -> ~p) -> ~(O(p / r) & O(q / r))",
    "|- ([]((q -> r) & (r -> q)) & O(p / q)) -> O(p / r)",
    "|- [](p -> q) -> ([]p -> []q)",
    "|- []p -> p",
    "|- []p -> [][]p",
    "|- ~O(false / q)",
    "|- p | ~p",
    "p & q |- q & p",
    "[]p, [](p -> q) |- []q",
    "O(p / r) |- O(p | q / r)",
    "|- O(p / q) -> O(p / q)",
    "[](p -> q), [](q -> p), O(r / p) |- O(r / q)",
]

UNDERIVABLE = [
    "|- false",
    "|- p",
    "p |- q",
    "|- O(p / q)",
    "O(p / q) |-",
    "|- []p",
    "p |- []p",
    "O(p / q) |- O(p / r)",
    "O(p / q) |- O(q / p)",
    "|- O(p / q) -> O(p & q / q)",
    "[](p -> q) |- O(q / r) -> O(p / r)",
]


@pytest.mark.parametrize("text", DERIVABLE)
def test_derivable_sequents_are_accepted(text):
    assert decide(parse_sequent(text))


@pytest.mark.parametrize("text", UNDERIVABLE)
def test_underivable_sequents_are_rejected(text):
    assert not decide(parse_sequent(text))


@pytest.mark.parametrize("text", DERIVABLE)
def test_accepted_searches_assemble_checkable_derivations(text):
    s = parse_sequent(text)
    res = prove(s)
    assert res.accepted
    assert res.derivation.conclusion == s
    assert check_derivation(res.derivation)


def test_loop_check_terminates_self_feeding_obligations():
    # the transitional premiss of the extracted obligation keeps
    # reproducing the same goal, so only the history check can stop it
    s = Sequent((Box(Obl(p, p)),), (BOT,))
    assert not decide(s)
    # contradictory bodies are fine when the conditions differ
    s2 = Sequent((Box(Obl(p, q)), Box(Obl(Neg(p), Atom("r")))), ())
    assert not decide(s2)
    # and clash when they agree
    s3 = Sequent((Box(Obl(p, q)), Box(Obl(Neg(p), q))), ())
    assert decide(s3)


def test_duplicates_in_the_goal_do_not_change_the_verdict():
    assert decide(parse_sequent("p, p |- p"))
    res = prove(parse_sequent("p & q, p & q |- q, q"))
    assert res.accepted
    assert res.derivation.conclusion == parse_sequent("p & q, p & q |- q, q")
    assert check_derivation(res.derivation)


def test_saturation_reaches_a_fixpoint():
    s = set_sequent([Neg(Neg(p)), Box(And(p, q))], [Or(p, q)])
    steps, sat = saturate(s)
    assert one_premiss_static_applications(sat) == []
    assert s <= sat
    assert steps[-1].result == sat
    # replaying the recorded moves lands on the same sequent
    cur = s
    for step in steps:
        assert cur <= step.result
        cur = step.result
    assert cur == sat


@given(sequents)
def test_saturation_takes_the_first_enumerated_move(seq):
    cur = to_set_sequent(seq)
    steps, sat = saturate(cur)
    for step in steps:
        first = one_premiss_static_applications(cur)[0]
        assert (step.rule, step.principal, step.result) == (
            first.rule,
            first.principal,
            first.premisses[0],
        )
        cur = step.result
    assert cur == sat


def test_closure_detection():
    assert closure_of(set_sequent([BOT], [])) == (RuleId.BOTTOM_L, ())
    rule, principal = closure_of(set_sequent([p, q], [q]))
    assert rule == RuleId.INIT and principal == (q,)
    assert closure_of(set_sequent([Box(p)], [Box(p)]), atomic_init=True) is None
    assert closure_of(set_sequent([p], [q])) is None


def test_budget_is_enforced_and_shared():
    big = parse_sequent("|- ([](p -> q) & O(p / r)) -> O(q / r)")
    with pytest.raises(BudgetExceeded):
        decide(big, budget=5)
    shared = Budget(10_000)
    decide(big, shared)
    used_once = shared.used
    decide(big, shared)
    assert shared.used == 2 * used_once


def test_atomic_init_variant_still_proves_the_axioms():
    for text in DERIVABLE:
        s = parse_sequent(text)
        res = prove(s, atomic_init=True)
        assert res.accepted, text
        assert check_derivation(res.derivation)


def test_search_is_deterministic():
    s = parse_sequent("|- [](q -> ~p) -> ~(O(p / r) & O(q / r))")
    assert prove(s).derivation == prove(s).derivation


@given(sequents)
@settings(max_examples=40)
def test_weakening_preserves_acceptance(seq):
    if decide(seq, budget=200_000):
        wider = Sequent(seq.ante + (Obl(p, q),), seq.succ + (Box(q),))
        assert decide(wider, budget=400_000)


@given(sequents)
@settings(max_examples=40)
def test_duplication_is_invisible(seq):
    doubled = Sequent(seq.ante + seq.ante, seq.succ + seq.succ)
    assert decide(seq, budget=200_000) == decide(doubled, budget=400_000)


def test_cut_conclusions_stay_derivable():
    rng = random.Random(11)
    found = 0
    while found < 30:
        cut = random_formula(rng, rng.randint(1, 3))
        left = random_sequent(rng, size=4)
        right = random_sequent(rng, size=4)
        first = Sequent(left.ante, left.succ + (cut,))
        second = Sequent((cut,) + right.ante, right.succ)
        if decide(first) and decide(second):
            merged = Sequent(left.ante + right.ante, left.succ + right.succ)
            assert decide(merged)
            found += 1


def test_assembled_derivations_use_no_structural_rules():
    res = prove(parse_sequent("[]p, [](p -> q) |- []q"))
    used = set(res.derivation.rules_used())
    assert RuleId.CUT not in used
    assert RuleId.WEAK_L not in used and RuleId.WEAK_R not in used
    assert RuleId.CON_L not in used and RuleId.CON_R not in used


def test_empty_sequent_is_rejected():
    assert not decide(Sequent((), ()))
    assert not decide(to_set_sequent(Sequent((), ())))
