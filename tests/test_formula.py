import hypothesis.strategies as st
from hypothesis import given

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
    from_set_sequent,
    sequent_subformulas,
    set_sequent,
    sort_key,
    sorted_formulas,
    subformulas,
    to_set_sequent,
)

from conftest import formulas, sequents

p, q, r = Atom("p"), Atom("q"), Atom("r")


def test_formulas_are_values():
    assert And(p, q) == And(p, q)
    assert And(p, q) != And(q, p)
    assert len({Box(p), Box(p), Obl(p, q)}) == 2
    assert TOP == Neg(BOT)


def test_subformulas():
    f = Imp(Box(p), Obl(p, Neg(q)))
    subs = subformulas(f)
    assert subs == {f, Box(p), Obl(p, Neg(q)), p, Neg(q), q}


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
def test_sort_key_is_stable_under_resorting(f):
    subs = sorted_formulas(subformulas(f))
    assert sorted_formulas(reversed(subs)) == subs


def test_set_sequent_containment():
    small = set_sequent([p], [q])
    big = set_sequent([p, r], [q, Box(p)])
    assert small <= big
    assert not big <= small
    assert small <= small


@given(sequents)
def test_set_conversion_keeps_support(s):
    back = from_set_sequent(to_set_sequent(s))
    assert set(back.ante) == set(s.ante)
    assert set(back.succ) == set(s.succ)
    assert len(back.ante) == len(set(s.ante))


def test_sequent_subformulas_covers_both_sides():
    s = Sequent((Box(p),), (Imp(p, q),))
    assert sequent_subformulas(s) == {Box(p), p, Imp(p, q), q}
