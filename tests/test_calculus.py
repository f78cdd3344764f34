import random

import hypothesis.strategies as st
import pytest
from hypothesis import given

from bmdl.calculus import (
    CHECKER_ONLY,
    ONE_PREMISS_STATIC,
    RuleId,
    TRANSITIONAL,
    TWO_PREMISS_STATIC,
    ZERO_PREMISS,
    Universe,
    ranks,
)
from bmdl.consistency import reduction_sequent
from bmdl.formula import (
    And,
    Atom,
    Bottom,
    Box,
    Imp,
    Neg,
    Obl,
    Or,
    Sequent,
    SetSequent,
    sequent_subformulas,
    set_sequent,
    sort_key,
    to_set_sequent,
)
from bmdl.gen import random_assumptions
from bmdl.parser import parse_sequent
from bmdl.search import closure_of, saturate

from conftest import (
    ANTE,
    SUCC,
    FormulaApplication,
    decoded,
    decoded_steps,
    one_premiss_move,
    reference_moves,
    reference_transitional_applications,
    reference_two_premiss_applications,
    saturate_sets,
    sequents,
    transitional_apps,
    two_premiss_apps,
)

p, q, r, t = Atom("p"), Atom("q"), Atom("r"), Atom("t")


def test_rule_groups_partition_the_rule_set():
    groups = [ZERO_PREMISS, ONE_PREMISS_STATIC, TWO_PREMISS_STATIC, TRANSITIONAL, CHECKER_ONLY]
    seen = [rule for g in groups for rule in g]
    assert len(seen) == len(set(seen)) == len(RuleId)


def test_one_premiss_rules_copy_their_principal():
    s = set_sequent([And(p, q)], [r])
    assert one_premiss_move(And(p, q), ANTE, s) == (RuleId.AND_L, (p, q), ())
    (step,), sat = saturate_sets(s)
    assert step.rule == RuleId.AND_L and step.principal == (And(p, q),)
    assert And(p, q) in sat.ante
    assert sat == set_sequent([And(p, q), p, q], [r])
    assert (step.new_ante, step.new_succ) == ((p, q), ())


def test_one_premiss_rules_skip_settled_principals():
    # everything the rules would add is already present
    s = set_sequent([And(p, q), p, q, Neg(r)], [r, p, Or(p, r)])
    for side, fs in ((ANTE, s.ante), (SUCC, s.succ)):
        assert all(one_premiss_move(f, side, s) is None for f in fs)
    assert saturate_sets(s) == ((), s)


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
    rules = [step.rule for step in saturate_sets(s)[0]]
    assert rules == [RuleId.NEG_L, RuleId.T, RuleId.IMP_R]
    # a formula added by a move is taken before larger ones still waiting
    s = set_sequent([Box(Neg(q))], [Imp(p, r)])
    rules = [step.rule for step in saturate_sets(s)[0]]
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
    fours = [a for a in transitional_apps(s) if a.rule == RuleId.FOUR]
    assert len(fours) == 1
    assert fours[0].premisses == (set_sequent([Box(p)], [r]),)


def test_transitional_d1_premiss():
    s = set_sequent([Box(p), Obl(q, r)], [t])
    d1s = [a for a in transitional_apps(s) if a.rule == RuleId.D1]
    assert len(d1s) == 1
    assert d1s[0].principal == (Obl(q, r),)
    assert d1s[0].premisses == (set_sequent([Box(p), q], []),)


def test_transitional_d2_premiss_triple():
    s = set_sequent([Obl(p, q), Obl(r, t)], [])
    d2s = [a for a in transitional_apps(s) if a.rule == RuleId.D2]
    assert len(d2s) == 1
    assert d2s[0].premisses == (
        set_sequent([p, r], []),
        set_sequent([q], [t]),
        set_sequent([t], [q]),
    )


def test_transitional_d2_counts_unordered_pairs():
    s = set_sequent([Obl(p, q), Obl(r, t), Obl(q, p)], [])
    d2s = [a for a in transitional_apps(s) if a.rule == RuleId.D2]
    assert len(d2s) == 3


def test_transitional_mon_premiss_triple():
    s = set_sequent([Box(p), Obl(p, q)], [Obl(r, t)])
    mons = [a for a in transitional_apps(s) if a.rule == RuleId.MON]
    assert len(mons) == 1
    assert mons[0].principal == (Obl(p, q), Obl(r, t))
    assert mons[0].premisses == (
        set_sequent([Box(p), p], [r]),
        set_sequent([Box(p), q], [t]),
        set_sequent([Box(p), t], [q]),
    )


def test_transitional_enumeration_order():
    s = set_sequent([Obl(p, q), Obl(q, r)], [Obl(r, t), Box(p)])
    rules = [a.rule for a in transitional_apps(s)]
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
    for enumerate_apps in (two_premiss_apps, transitional_apps):
        apps = enumerate_apps(s)
        assert apps == enumerate_apps(to_set_sequent(seq))
        assert all(app.rule not in CHECKER_ONLY for app in apps)
    steps, sat = saturate_sets(s)
    assert saturate_sets(to_set_sequent(seq)) == (steps, sat)
    assert all(step.rule in ONE_PREMISS_STATIC for step in steps)


def assumption_sets(seed: int) -> SetSequent:
    """The reduction sequent of a seeded bmdl.gen assumption set."""
    rng = random.Random(seed)
    assumptions = random_assumptions(rng, rng.randint(1, 4), modal_depth=rng.randint(2, 3))
    return to_set_sequent(reduction_sequent(assumptions))


set_sequents = st.one_of(
    sequents.map(to_set_sequent),
    st.integers(0, 2**32).map(assumption_sets),
)


def table_moves(u: Universe, s: tuple[int, int]) -> list[FormulaApplication]:
    """The productive entries of the universe's move tables at s, antecedent
    before succedent, each side in rank order, decoded."""
    ante, succ = s
    apps = []
    for side, mask in ((ANTE, ante), (SUCC, succ)):
        for i in ranks(mask & u.movers[side]):
            rule, add_ante, add_succ = u.moves[side][i]
            if add_ante & ~ante or add_succ & ~succ:
                prem = u.decode((ante | add_ante, succ | add_succ))
                apps.append(FormulaApplication(rule, (u.formulas[i],), (prem,)))
    return apps


@given(set_sequents)
def test_the_universe_enumerates_as_the_references_do(s):
    u = Universe(s)
    masks = u.encode(s)
    assert table_moves(u, masks) == reference_moves(s)
    branching = u.first_branching(*masks)
    first = [] if branching is None else [decoded(u, branching)]
    assert first == reference_two_premiss_applications(s)[:1]
    assert [decoded(u, app) for app in u.transitional(*masks)] == reference_transitional_applications(s)


@given(set_sequents)
def test_mask_saturation_makes_the_reference_moves(s):
    u = Universe(s)
    steps, sat = saturate(u, u.encode(s))
    cur = s
    for step in decoded_steps(u, steps):
        assert closure_of(u, u.encode(cur)) is None
        first = reference_moves(cur)[0]
        cur = SetSequent(cur.ante.union(step.new_ante), cur.succ.union(step.new_succ))
        assert (step.rule, step.principal, cur) == (first.rule, first.principal, first.premisses[0])
    assert cur == u.decode(sat)
    assert closure_of(u, sat) is not None or not reference_moves(cur)


def test_encoding_a_formula_outside_the_closure_is_a_value_error():
    u = Universe(set_sequent([And(p, q)], [Box(r)]))
    assert u.encode(set_sequent([p], [r])) == (1 << u.rank[p], 1 << u.rank[r])
    for outside in (set_sequent([t], []), set_sequent([], [Box(p)]), set_sequent([Neg(And(p, q))], [])):
        with pytest.raises(ValueError, match="not a subformula"):
            u.encode(outside)


@given(sequents, st.randoms(use_true_random=False))
def test_ranks_come_from_sort_key_alone(seq, rng):
    closure = list(sequent_subformulas(seq))
    u = Universe(seq)
    assert list(u.formulas) == sorted(closure, key=sort_key)
    assert all(u.rank[f] == i for i, f in enumerate(u.formulas))
    # the same closure, reached from its members listed in another order
    # and on other sides
    rng.shuffle(closure)
    cut = rng.randint(0, len(closure))
    again = Universe(Sequent(tuple(closure[:cut]), tuple(closure[cut:])))
    assert again.formulas == u.formulas
    assert again.moves == u.moves and again.movers == u.movers
    assert (again.first, again.second) == (u.first, u.second)


@given(sequents)
def test_canonical_formulas_are_built_from_the_canonical_formulas_of_their_ranks(seq):
    # a goal that repeats a compound subformula as another object, and one
    # drawn from the strategy
    for goal in (parse_sequent("(p & q) | r, p & q |- [](p & q)"), seq):
        u = Universe(goal)
        canonical = u.canonical()
        assert canonical == u.formulas
        # a compound argument is the canonical formula of its rank itself;
        # atoms, compared in one step, may be other objects
        for i, f in enumerate(canonical):
            args = [getattr(f, name) for name in f.__dataclass_fields__ if name != "name"]
            for arg in args:
                ranked = canonical[u.rank[arg]]
                assert arg is ranked or type(arg) in (Atom, Bottom)
        everything = (1 << len(canonical)) - 1
        assert u.decode((everything, 0)).ante == frozenset(u.formulas)
