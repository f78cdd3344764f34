import pytest
from hypothesis import given

from bmdl.calculus import RuleId
from bmdl.formula import And, Atom, BOT, Box, Neg, Obl, Sequent
from bmdl.kernel import (
    Derivation,
    DerivationError,
    check_derivation,
    derivation_from_json,
    derivation_to_json,
    premisses_for,
)
from bmdl.parser import parse_sequent
from bmdl.search import prove

from conftest import formulas

p, q, r = Atom("p"), Atom("q"), Atom("r")


def test_premisses_for_splits_conjunction_left():
    c = Sequent((And(p, q), r), (q,))
    (prem,) = premisses_for(RuleId.AND_L, (And(p, q),), c)
    assert prem == Sequent((And(p, q), r, p, q), (q,))


def test_premisses_for_transitional_rules_strip_to_boxes():
    c = Sequent((Box(p), q, Obl(q, r)), (Box(r),))
    (prem,) = premisses_for(RuleId.FOUR, (Box(r),), c)
    assert prem == Sequent((Box(p),), (r,))
    (prem,) = premisses_for(RuleId.D1, (Obl(q, r),), c)
    assert prem == Sequent((Box(p), q), ())


def test_premisses_for_rejects_missing_principal():
    with pytest.raises(ValueError):
        premisses_for(RuleId.AND_L, (And(p, q),), Sequent((p,), (q,)))
    with pytest.raises(ValueError):
        premisses_for(RuleId.AND_L, (p,), Sequent((p,), (q,)))
    with pytest.raises(ValueError):
        premisses_for(RuleId.INIT, (), Sequent((p,), (p,)))


def test_duplicate_principals_need_two_copies():
    c = Sequent((Obl(p, q),), ())
    with pytest.raises(ValueError):
        premisses_for(RuleId.D2, (Obl(p, q), Obl(p, q)), c)
    c2 = Sequent((Obl(p, q), Obl(p, q)), ())
    prems = premisses_for(RuleId.D2, (Obl(p, q), Obl(p, q)), c2)
    assert prems[0] == Sequent((p, p), ())


def test_axiom_derivations_check():
    res = prove(parse_sequent("|- ([](p -> q) & O(p / r)) -> O(q / r)"))
    assert check_derivation(res.derivation)


def test_checker_localizes_the_offending_node():
    good = prove(parse_sequent("p & q |- q & p")).derivation
    assert check_derivation(good)

    def tamper(d: Derivation, path):
        if not path:
            return Derivation(d.conclusion, d.rule, d.principal, ())
        i = path[0]
        kids = list(d.children)
        kids[i] = tamper(kids[i], path[1:])
        return Derivation(d.conclusion, d.rule, d.principal, tuple(kids))

    bad = tamper(good, (0,))
    with pytest.raises(DerivationError) as err:
        check_derivation(bad)
    assert err.value.path == (0,)


def test_init_needs_a_shared_formula():
    with pytest.raises(DerivationError):
        check_derivation(Derivation(Sequent((p,), (q,)), RuleId.INIT))
    assert check_derivation(Derivation(Sequent((Box(p),), (Box(p),)), RuleId.INIT))


def test_bottom_left_needs_bottom():
    with pytest.raises(DerivationError):
        check_derivation(Derivation(Sequent((p,), ()), RuleId.BOTTOM_L))
    assert check_derivation(Derivation(Sequent((BOT, p), (q,)), RuleId.BOTTOM_L))


def test_multiset_exactness_of_logical_premisses():
    c = Sequent((And(p, p),), ())
    # the premiss must carry both added copies of p
    short = Derivation(
        c,
        RuleId.AND_L,
        (And(p, p),),
        (Derivation(Sequent((And(p, p), p), ()), RuleId.BOTTOM_L),),
    )
    with pytest.raises(DerivationError):
        check_derivation(short)


def test_weakening_rules():
    inner = Derivation(Sequent((p,), (p,)), RuleId.INIT)
    grown = Derivation(Sequent((p, q), (p,)), RuleId.WEAK_L, (), (inner,))
    assert check_derivation(grown)
    with pytest.raises(DerivationError):
        check_derivation(Derivation(Sequent((p,), (p, q)), RuleId.WEAK_L, (), (inner,)))
    grown_r = Derivation(Sequent((p,), (p, q)), RuleId.WEAK_R, (), (inner,))
    assert check_derivation(grown_r)


def test_contraction_rules_count_copies():
    inner = Derivation(Sequent((p, p), (p,)), RuleId.INIT)
    contracted = Derivation(Sequent((p,), (p,)), RuleId.CON_L, (p,), (inner,))
    assert check_derivation(contracted)
    with pytest.raises(DerivationError):
        check_derivation(Derivation(Sequent((q,), (p,)), RuleId.CON_L, (q,), (inner,)))


def test_cut_conclusion_must_split():
    left = Derivation(Sequent((p,), (q, p)), RuleId.INIT)
    right = Derivation(Sequent((p, r), (r,)), RuleId.INIT)
    cut = Derivation(Sequent((p, r), (q, r)), RuleId.CUT, (p,), (left, right))
    assert check_derivation(cut)
    bad = Derivation(Sequent((p, r), (q,)), RuleId.CUT, (p,), (left, right))
    with pytest.raises(DerivationError):
        check_derivation(bad)


def test_assumption_leaves_must_be_declared():
    leaf = Derivation(Sequent((), (p,)), RuleId.ASSUMPTION)
    with pytest.raises(DerivationError):
        check_derivation(leaf)
    assert check_derivation(leaf, [Sequent((), (p,))])
    # multiset equality, order of sides is free
    two = Derivation(Sequent((q, p), (r,)), RuleId.ASSUMPTION)
    assert check_derivation(two, [Sequent((p, q), (r,))])
    with pytest.raises(DerivationError):
        check_derivation(two, [Sequent((p, p, q), (r,))])


def test_arity_is_checked():
    with pytest.raises(DerivationError) as err:
        check_derivation(
            Derivation(Sequent((p,), (p,)), RuleId.INIT, (), (Derivation(Sequent((p,), (p,)), RuleId.INIT),))
        )
    assert "0" in str(err.value)


def test_rules_used_counts_the_whole_tree():
    d = prove(parse_sequent("|- ~O(false / q)")).derivation
    used = d.rules_used()
    assert used[RuleId.NEG_R] == 1
    assert used[RuleId.D1] == 1
    assert used[RuleId.BOTTOM_L] == 1


def test_serialization_round_trip():
    d = prove(parse_sequent("|- [](q -> ~p) -> ~(O(p / r) & O(q / r))")).derivation
    data = derivation_to_json(d)
    assert derivation_from_json(data) == d


def test_deserialization_rejects_unknown_rules():
    with pytest.raises(ValueError):
        derivation_from_json({"rule": "Guess", "conclusion": "|- p", "children": []})


@pytest.mark.parametrize(
    "data, where",
    [
        ([], "root"),
        ({"rule": "Init", "principal": ["p"]}, "root"),
        ({"rule": "Init", "conclusion": "p |- p", "principal": "p"}, "root"),
        ({"rule": "WeakL", "conclusion": "p |- p", "children": {}}, "root"),
        ({"rule": "WeakL", "conclusion": "p, q |- p", "children": [{"rule": "Init"}]}, "node 0"),
        ({"rule": "WeakL", "conclusion": "p, q |- p", "children": ["p |- p"]}, "node 0"),
    ],
)
def test_deserialization_rejects_malformed_shapes(data, where):
    with pytest.raises(DerivationError, match=f"^{where}: "):
        derivation_from_json(data)


@given(formulas)
def test_negation_premisses_match_on_both_sides(f):
    c_l = Sequent((Neg(f),), ())
    (prem,) = premisses_for(RuleId.NEG_L, (Neg(f),), c_l)
    assert prem == Sequent((Neg(f),), (f,))
    c_r = Sequent((), (Neg(f),))
    (prem,) = premisses_for(RuleId.NEG_R, (Neg(f),), c_r)
    assert prem == Sequent((f,), (Neg(f),))
