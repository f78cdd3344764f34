import copy
import pickle
from dataclasses import FrozenInstanceError, fields, make_dataclass

import hypothesis.strategies as st
import pytest
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
    sort_key,
    sorted_formulas,
)
from bmdl.kernel import Derivation
from bmdl.parser import parse_formula, print_formula

from conftest import formulas, reference_hash, reference_sort_key, sequents

p, q = Atom("p"), Atom("q")


def test_formulas_are_values():
    assert And(p, q) == And(p, q)
    assert And(p, q) != And(q, p)
    assert len({Box(p), Box(p), Obl(p, q)}) == 2
    assert TOP == Neg(BOT)
    # classes that share a shape base are still told apart
    assert Neg(p) != Box(p) and len({Neg(p), Box(p)}) == 2
    binary = [And(p, q), Or(p, q), Imp(p, q)]
    assert [a == b for a in binary for b in binary] == [a is b for a in binary for b in binary]
    assert len({*binary, And(p, q), Or(p, q), Imp(p, q)}) == 3


def test_subformulas():
    f = Imp(Box(p), Obl(p, Neg(q)))
    subs = Universe(Sequent((f,), ())).formulas
    assert len(subs) == 6 and set(subs) == {f, Box(p), Obl(p, Neg(q)), p, Neg(q), q}


@given(formulas, formulas)
def test_sort_key_separates_formulas(f, g):
    assert (sort_key(f) == sort_key(g)) == (f == g)


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
    # the same again on fresh nodes built apart
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
def test_constructors_fill_each_node_as_the_reference(f):
    """Every node is filled when it is made: its key is the reference key,
    its hash the hash of its field tuple, as the dataclass hash has it, and
    it holds no text until its first print."""
    g = rebuilt(f)
    for node in Universe(Sequent((g,), ())).formulas:
        assert node._k == reference_sort_key(node)
        assert node._h == reference_hash(node)
        assert node._t is None
    assert print_formula(g) == print_formula(f) == g._t


@given(formulas)
def test_copies_and_pickles_are_filled_as_the_original(f):
    """copy, deepcopy and a pickle round trip remake a node through its
    constructor: the same value, hash, key and printed text, parsed or
    built."""
    for g in (f, parse_formula(print_formula(f))):
        text = print_formula(g)
        for c in (copy.copy(g), copy.deepcopy(g), pickle.loads(pickle.dumps(g))):
            assert c == g and hash(c) == hash(g) and c._k == g._k
            assert print_formula(c) == text


# One node of each class, with the repr it had when each class was a
# dataclass of its own; Neg and Box now share one shape base, and And, Or
# and Imp another.
_EACH_CLASS = [
    (Atom("p"), "Atom(name='p')"),
    (Bottom(), "Bottom()"),
    (Neg(p), "Neg(f=Atom(name='p'))"),
    (Box(p), "Box(f=Atom(name='p'))"),
    (And(p, q), "And(l=Atom(name='p'), r=Atom(name='q'))"),
    (Or(p, q), "Or(l=Atom(name='p'), r=Atom(name='q'))"),
    (Imp(p, q), "Imp(l=Atom(name='p'), r=Atom(name='q'))"),
    (Obl(p, q), "Obl(body=Atom(name='p'), cond=Atom(name='q'))"),
]


def _rebuilt_from_fields(f):
    """f rebuilt bottom-up through dataclasses.fields, as the benchmark's
    workloads substitute into formulas."""
    if isinstance(f, str):
        return f
    return type(f)(*(_rebuilt_from_fields(getattr(f, x.name)) for x in fields(f)))


@pytest.mark.parametrize("node, text", _EACH_CLASS, ids=[type(n).__name__ for n, _ in _EACH_CLASS])
def test_every_node_class_rebuilds_prints_and_pickles_as_its_own_dataclass(node, text):
    again = _rebuilt_from_fields(node)
    assert type(again) is type(node) and again == node and hash(again) == hash(node)
    assert again._k == node._k
    assert tuple(x.name for x in fields(node)) == type(node).__match_args__
    assert repr(node) == repr(again) == text
    back = pickle.loads(pickle.dumps(node))
    assert type(back) is type(node) and back == node and hash(back) == hash(node)
    assert repr(back) == text
    for x in fields(node):
        with pytest.raises(FrozenInstanceError):
            setattr(node, x.name, p)


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
