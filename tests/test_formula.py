from dataclasses import make_dataclass

import hypothesis.strategies as st
from hypothesis import given

from bmdl.calculus import RuleId, Universe
from bmdl.formula import (
    And,
    Atom,
    BOT,
    Bottom,
    Box,
    Imp,
    Neg,
    Obl,
    Or,
    Sequent,
    TOP,
    filled,
    sort_key,
    sorted_formulas,
)
from bmdl.kernel import Derivation
from bmdl.parser import print_formula

from conftest import formulas, sequents

p, q = Atom("p"), Atom("q")


def test_formulas_are_values():
    assert And(p, q) == And(p, q)
    assert And(p, q) != And(q, p)
    assert len({Box(p), Box(p), Obl(p, q)}) == 2
    assert TOP == Neg(BOT)


def test_subformulas():
    f = Imp(Box(p), Obl(p, Neg(q)))
    subs = Universe(Sequent((f,), ())).formulas
    assert len(subs) == 6 and set(subs) == {f, Box(p), Obl(p, Neg(q)), p, Neg(q), q}


@given(formulas, formulas)
def test_sort_key_separates_formulas(f, g):
    assert (sort_key(f) == sort_key(g)) == (f == g)


def reference_sort_key(f):
    """The recursive sort key that the cached keys must reproduce."""
    match f:
        case Bottom():
            return (0,)
        case Atom(name):
            return (1, name)
        case Neg(g):
            return (2, reference_sort_key(g))
        case And(l, r):
            return (3, reference_sort_key(l), reference_sort_key(r))
        case Or(l, r):
            return (4, reference_sort_key(l), reference_sort_key(r))
        case Imp(l, r):
            return (5, reference_sort_key(l), reference_sort_key(r))
        case Box(g):
            return (6, reference_sort_key(g))
        case Obl(b, c):
            return (7, reference_sort_key(b), reference_sort_key(c))
    raise TypeError(f"not a formula: {f!r}")


def rebuilt(f):
    """A structurally equal copy of f that shares no node with it."""
    if isinstance(f, Atom):
        return Atom(f.name)
    if isinstance(f, Bottom):
        return Bottom()
    return type(f)(*(rebuilt(getattr(f, name)) for name in f.__match_args__))


@given(st.lists(formulas, max_size=6))
def test_cached_keys_give_the_reference_order(fs):
    assert [sort_key(f) for f in fs] == [reference_sort_key(f) for f in fs]
    assert sorted_formulas(fs) == sorted(fs, key=reference_sort_key)
    # the same again on fresh nodes, whose caches start empty
    fresh = [rebuilt(f) for f in fs]
    assert sorted_formulas(fresh) == sorted(fs, key=reference_sort_key)


@given(formulas)
def test_equal_formulas_built_apart_hash_and_compare_equal(f):
    g = rebuilt(f)
    assert g is not f
    assert g == f and hash(g) == hash(f)
    assert g in {f} and f in frozenset([g])
    assert sort_key(g) == sort_key(f)


def test_deep_formulas_hash_sort_and_fill_without_recursion():
    deep = p
    for _ in range(500):
        deep = Neg(deep)
    assert sort_key(deep)[0] == 2
    assert hash(deep) == hash((deep.f,))
    assert deep in {deep, q}
    assert Neg(q) not in {deep}
    assert sorted_formulas([deep, deep.f, q]) == [q, deep.f, deep]


@given(formulas)
def test_filled_over_a_never_filled_formula_fills_as_the_lazy_fill(f):
    """filled takes the node's hash before it reads a field's key, and the
    hash fills the field: a box made by filled over a formula built
    anywhere has the key, hash and text of a lazily filled box."""
    a, lazy = rebuilt(f), Box(rebuilt(f))
    assert not hasattr(a, "_k")
    box = filled(Box, a)
    assert box == lazy and box._t is None
    assert (box._k, box._h) == (sort_key(lazy), hash(lazy)) == (reference_sort_key(lazy), hash(lazy))
    assert print_formula(box) == print_formula(lazy) == box._t == lazy._t


@given(formulas)
def test_sort_key_is_stable_under_resorting(f):
    subs = list(Universe(Sequent((f,), ())).formulas)
    assert sorted_formulas(reversed(subs)) == subs


def test_sequent_subformulas_covers_both_sides():
    s = Sequent((Box(p),), (Imp(p, q),))
    assert set(Universe(s).formulas) == {Box(p), p, Imp(p, q), q}


# Sequent as the frozen dataclass it was: the reference for the hash,
# equality and repr of the tuple type that replaces it.  Its hash fixes the
# iteration order of sets of sequents, which the frozen gates rely on.
_DataSequent = make_dataclass(
    "Sequent", [("ante", tuple), ("succ", tuple)], frozen=True
)


@given(st.lists(sequents, max_size=8))
def test_sequents_hash_compare_and_print_as_the_dataclasses_did(ss):
    new = [Sequent(s.ante, s.succ) for s in ss]
    old = [_DataSequent(s.ante, s.succ) for s in ss]
    for a, x in zip(new, old):
        assert hash(a) == hash(x)
        assert repr(a) == repr(x)
        for b, y in zip(new, old):
            assert (a == b) == (x == y)
            assert (a != b) == (x != y)
    # sets of sequents iterate in the same order, duplicates and all
    assert [(a.ante, a.succ) for a in set(new)] == [(x.ante, x.succ) for x in set(old)]
    assert [(a.ante, a.succ) for a in dict.fromkeys(new)] == [(x.ante, x.succ) for x in dict.fromkeys(old)]


def test_derivation_keeps_its_defaults():
    c = Sequent((p,), (p,))
    d = Derivation(c, RuleId.INIT)
    assert (d.conclusion, d.rule, d.principal, d.children) == (c, RuleId.INIT, (), ())
    assert d == Derivation(conclusion=c, rule=RuleId.INIT, principal=(), children=())
    assert repr(d) == f"Derivation(conclusion={c!r}, rule={RuleId.INIT!r}, principal=(), children=())"
