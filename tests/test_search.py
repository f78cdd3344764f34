import random
from collections import Counter

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from bmdl import search
from bmdl.calculus import (
    ONE_PREMISS_MOVES,
    RuleApplication,
    RuleId,
)
from bmdl.formula import (
    And,
    Atom,
    BOT,
    Box,
    Imp,
    Neg,
    Obl,
    Or,
    Sequent,
    SetSequent,
    sequent_subformulas,
    set_sequent,
    sorted_formulas,
    to_set_sequent,
)
from bmdl.gen import random_formula, random_sequent
from bmdl.kernel import check_derivation
from bmdl.parser import parse_sequent
from bmdl.search import (
    Budget,
    BudgetExceeded,
    SatStep,
    closure_of,
    decide,
    prove,
    saturate,
)

from conftest import ANTE, SUCC, one_premiss_move, sequents

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


def reference_one_premiss_applications(s: SetSequent) -> list[RuleApplication]:
    """Every productive one-premiss static application at s, antecedent
    before succedent, each side in sort_key order, with each rule's
    productivity test spelled out: the enumeration that saturation by
    restarting the scan after every move takes the first entry of."""

    def grown(ante=(), succ=()):
        return SetSequent(s.ante.union(ante), s.succ.union(succ))

    ante, succ = s.ante, s.succ
    apps = []
    for f in sorted_formulas(ante):
        match f:
            case Neg(g):
                if g not in succ:
                    apps.append(RuleApplication(RuleId.NEG_L, (f,), (grown(succ=(g,)),)))
            case And(l, r):
                if l not in ante or r not in ante:
                    apps.append(RuleApplication(RuleId.AND_L, (f,), (grown(ante=(l, r)),)))
            case Box(g):
                if g not in ante:
                    apps.append(RuleApplication(RuleId.T, (f,), (grown(ante=(g,)),)))
    for f in sorted_formulas(succ):
        match f:
            case Neg(g):
                if g not in ante:
                    apps.append(RuleApplication(RuleId.NEG_R, (f,), (grown(ante=(g,)),)))
            case Or(l, r):
                if l not in succ or r not in succ:
                    apps.append(RuleApplication(RuleId.OR_R, (f,), (grown(succ=(l, r)),)))
            case Imp(l, r):
                if l not in ante or r not in succ:
                    apps.append(
                        RuleApplication(RuleId.IMP_R, (f,), (grown(ante=(l,), succ=(r,)),))
                    )
    return apps


def reference_saturate(s: SetSequent) -> tuple[tuple[SatStep, ...], SetSequent]:
    """Saturation by restarting the scan after every move: each move is the
    first entry of reference_one_premiss_applications."""
    steps = []
    while True:
        apps = reference_one_premiss_applications(s)
        if not apps:
            return tuple(steps), s
        s = apps[0].premisses[0]
        steps.append(SatStep(apps[0].rule, apps[0].principal, s))


def generated_sequents(seed: int, count: int) -> list[SetSequent]:
    """Seeded bmdl.gen sequents of the frozen-verdict mix: sizes 6-10,
    widths 2-3."""
    rng = random.Random(seed)
    return [
        to_set_sequent(random_sequent(rng, size=rng.randint(6, 10), width=rng.randint(2, 3)))
        for _ in range(count)
    ]


@st.composite
def sequents_with_extras(draw):
    """A set sequent, and formulas drawn from its subformulas for each side."""
    s = to_set_sequent(draw(sequents))
    subs = sorted_formulas(sequent_subformulas(s))
    if not subs:
        return s, frozenset(), frozenset()
    extra = st.frozensets(st.sampled_from(subs), max_size=4)
    return s, draw(extra), draw(extra)


def test_saturation_reaches_a_fixpoint():
    s = set_sequent([Neg(Neg(p)), Box(And(p, q))], [Or(p, q)])
    steps, sat = saturate(s)
    assert reference_one_premiss_applications(sat) == []
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
        first = reference_one_premiss_applications(cur)[0]
        assert (step.rule, step.principal, step.result) == (
            first.rule,
            first.principal,
            first.premisses[0],
        )
        cur = step.result
    assert cur == sat


@given(sequents)
def test_agenda_saturation_equals_the_restart_scan(seq):
    s = to_set_sequent(seq)
    assert saturate(s) == reference_saturate(s)


def test_agenda_saturation_equals_the_restart_scan_on_generated_sequents():
    for s in generated_sequents(2718, 300):
        assert saturate(s) == reference_saturate(s)


def _seeded_agrees(s, extra_ante, extra_succ):
    base = saturate(s)[1]
    wider = SetSequent(base.ante | extra_ante, base.succ | extra_succ)
    assert saturate(wider, base) == saturate(wider) == reference_saturate(wider)


@given(sequents_with_extras())
def test_saturation_seeded_by_a_saturated_base_equals_the_restart_scan(drawn):
    _seeded_agrees(*drawn)


def test_seeded_saturation_equals_the_restart_scan_on_generated_sequents():
    rng = random.Random(3141)
    for s in generated_sequents(1618, 300):
        subs = sorted_formulas(sequent_subformulas(s))
        _seeded_agrees(
            s,
            frozenset(rng.sample(subs, min(len(subs), rng.randint(0, 3)))),
            frozenset(rng.sample(subs, min(len(subs), rng.randint(0, 3)))),
        )


@given(sequents_with_extras())
def test_one_premiss_moves_are_antimonotone(drawn):
    s, extra_ante, extra_succ = drawn
    wider = SetSequent(s.ante | extra_ante, s.succ | extra_succ)
    for f in sequent_subformulas(s):
        for side in (ANTE, SUCC):
            if one_premiss_move(f, side, s) is None:
                assert one_premiss_move(f, side, wider) is None


@given(sequents)
def test_move_table_gives_the_reference_applications(seq):
    s = to_set_sequent(seq)
    from_table = []
    for side, fs in ((ANTE, s.ante), (SUCC, s.succ)):
        for f in sorted_formulas(fs):
            move = one_premiss_move(f, side, s)
            if move is not None:
                rule, add_ante, add_succ = move
                prem = SetSequent(s.ante.union(add_ante), s.succ.union(add_succ))
                from_table.append(RuleApplication(rule, (f,), (prem,)))
    assert from_table == reference_one_premiss_applications(s)


@given(sequents_with_extras())
def test_saturation_examines_each_formula_once(drawn):
    s, extra_ante, extra_succ = drawn
    seen = Counter()

    def counting(side, move):
        def examine(f, ante, succ):
            seen[side, f] += 1
            return move(f, ante, succ)

        return examine

    counted = tuple(
        {cls: counting(side, move) for cls, move in moves.items()}
        for side, moves in enumerate(ONE_PREMISS_MOVES)
    )
    base = saturate(s)[1]
    wider = SetSequent(base.ante | extra_ante, base.succ | extra_succ)
    saved = search.ONE_PREMISS_MOVES
    search.ONE_PREMISS_MOVES = counted
    try:
        _, sat = saturate(wider, base)
    finally:
        search.ONE_PREMISS_MOVES = saved
    assert all(n == 1 for n in seen.values())
    fresh = (sat.ante - base.ante, sat.succ - base.succ)
    assert set(seen) == {
        (side, f)
        for side in (ANTE, SUCC)
        for f in fresh[side]
        if type(f) in ONE_PREMISS_MOVES[side]
    }


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
