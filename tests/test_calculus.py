from hypothesis import given

from bmdl.calculus import (
    CHECKER_ONLY,
    ONE_PREMISS_STATIC,
    RuleId,
    TRANSITIONAL,
    TWO_PREMISS_STATIC,
    ZERO_PREMISS,
    iter_two_premiss_static_applications,
    transitional_applications,
)
from bmdl.formula import (
    And,
    Atom,
    Box,
    Imp,
    Neg,
    Obl,
    Or,
    set_sequent,
    to_set_sequent,
)
from bmdl.search import saturate

from conftest import ANTE, SUCC, one_premiss_move, sequents

p, q, r, t = Atom("p"), Atom("q"), Atom("r"), Atom("t")


def test_rule_groups_partition_the_rule_set():
    groups = [ZERO_PREMISS, ONE_PREMISS_STATIC, TWO_PREMISS_STATIC, TRANSITIONAL, CHECKER_ONLY]
    seen = [rule for g in groups for rule in g]
    assert len(seen) == len(set(seen)) == len(RuleId)


def two_premiss_apps(s):
    return list(iter_two_premiss_static_applications(s))


def test_one_premiss_rules_copy_their_principal():
    s = set_sequent([And(p, q)], [r])
    assert one_premiss_move(And(p, q), ANTE, s) == (RuleId.AND_L, (p, q), ())
    (step,), sat = saturate(s)
    assert step.rule == RuleId.AND_L and step.principal == (And(p, q),)
    assert And(p, q) in sat.ante
    assert sat == set_sequent([And(p, q), p, q], [r])
    assert (step.new_ante, step.new_succ) == ((p, q), ())


def test_one_premiss_rules_skip_settled_principals():
    # everything the rules would add is already present
    s = set_sequent([And(p, q), p, q, Neg(r)], [r, p, Or(p, r)])
    for side, fs in ((ANTE, s.ante), (SUCC, s.succ)):
        assert all(one_premiss_move(f, side, s) is None for f in fs)
    assert saturate(s) == ((), s)


def test_one_premiss_moves_need_a_rule_on_their_side():
    s = set_sequent([Or(p, q), Imp(p, q)], [And(p, q), Box(p)])
    for f in s.ante:
        assert one_premiss_move(f, ANTE, s) is None
    for f in s.succ:
        assert one_premiss_move(f, SUCC, s) is None


def test_one_premiss_moves_add_repeated_formulas_once():
    s = set_sequent([And(p, p)], [Or(q, q)])
    assert one_premiss_move(And(p, p), ANTE, s) == (RuleId.AND_L, (p,), ())
    assert one_premiss_move(Or(q, q), SUCC, s) == (RuleId.OR_R, (), (q,))


def test_one_premiss_enumeration_order_is_by_side_then_formula():
    s = set_sequent([Neg(p), Box(q)], [Imp(p, r)])
    rules = [step.rule for step in saturate(s)[0]]
    assert rules == [RuleId.NEG_L, RuleId.T, RuleId.IMP_R]
    # a formula added by a move is taken before larger ones still waiting
    s = set_sequent([Box(Neg(q))], [Imp(p, r)])
    rules = [step.rule for step in saturate(s)[0]]
    assert rules == [RuleId.T, RuleId.NEG_L, RuleId.IMP_R]


def test_two_premiss_rules_need_both_premisses_productive():
    s = set_sequent([Or(p, q)], [q])
    (app,) = two_premiss_apps(s)
    assert app.rule == RuleId.OR_L
    assert app.premisses == (
        set_sequent([Or(p, q), p], [q]),
        set_sequent([Or(p, q), q], [q]),
    )
    # one branch would add nothing, so the application is withheld
    settled = set_sequent([Or(p, q), q], [q])
    assert two_premiss_apps(settled) == []


def test_implication_left_premisses():
    s = set_sequent([Imp(p, q)], [r])
    (app,) = two_premiss_apps(s)
    assert app.premisses == (
        set_sequent([Imp(p, q)], [r, p]),
        set_sequent([Imp(p, q), q], [r]),
    )


def test_transitional_four_keeps_only_boxed_context():
    s = set_sequent([Box(p), q, Obl(p, q)], [Box(r), t])
    fours = [a for a in transitional_applications(s) if a.rule == RuleId.FOUR]
    assert len(fours) == 1
    assert fours[0].premisses == (set_sequent([Box(p)], [r]),)


def test_transitional_d1_premiss():
    s = set_sequent([Box(p), Obl(q, r)], [t])
    d1s = [a for a in transitional_applications(s) if a.rule == RuleId.D1]
    assert len(d1s) == 1
    assert d1s[0].principal == (Obl(q, r),)
    assert d1s[0].premisses == (set_sequent([Box(p), q], []),)


def test_transitional_d2_premiss_triple():
    s = set_sequent([Obl(p, q), Obl(r, t)], [])
    d2s = [a for a in transitional_applications(s) if a.rule == RuleId.D2]
    assert len(d2s) == 1
    assert d2s[0].premisses == (
        set_sequent([p, r], []),
        set_sequent([q], [t]),
        set_sequent([t], [q]),
    )


def test_transitional_d2_counts_unordered_pairs():
    s = set_sequent([Obl(p, q), Obl(r, t), Obl(q, p)], [])
    d2s = [a for a in transitional_applications(s) if a.rule == RuleId.D2]
    assert len(d2s) == 3


def test_transitional_mon_premiss_triple():
    s = set_sequent([Box(p), Obl(p, q)], [Obl(r, t)])
    mons = [a for a in transitional_applications(s) if a.rule == RuleId.MON]
    assert len(mons) == 1
    assert mons[0].principal == (Obl(p, q), Obl(r, t))
    assert mons[0].premisses == (
        set_sequent([Box(p), p], [r]),
        set_sequent([Box(p), q], [t]),
        set_sequent([Box(p), t], [q]),
    )


def test_transitional_enumeration_order():
    s = set_sequent([Obl(p, q), Obl(q, r)], [Obl(r, t), Box(p)])
    rules = [a.rule for a in transitional_applications(s)]
    assert rules == [
        RuleId.D1,
        RuleId.D1,
        RuleId.D2,
        RuleId.MON,
        RuleId.MON,
        RuleId.FOUR,
    ]


@given(sequents)
def test_static_premisses_strictly_grow(seq):
    s = to_set_sequent(seq)
    for side, fs in ((ANTE, s.ante), (SUCC, s.succ)):
        for f in fs:
            move = one_premiss_move(f, side, s)
            if move is not None:
                _, add_ante, add_succ = move
                assert not (s.ante.issuperset(add_ante) and s.succ.issuperset(add_succ))
    for app in two_premiss_apps(s):
        for prem in app.premisses:
            assert s <= prem and prem != s


@given(sequents)
def test_enumeration_is_deterministic(seq):
    s = to_set_sequent(seq)
    for enumerate_apps in (two_premiss_apps, transitional_applications):
        apps = enumerate_apps(s)
        assert apps == enumerate_apps(to_set_sequent(seq))
        assert all(app.rule not in CHECKER_ONLY for app in apps)
    steps, sat = saturate(s)
    assert saturate(to_set_sequent(seq)) == (steps, sat)
    assert all(step.rule in ONE_PREMISS_STATIC for step in steps)
