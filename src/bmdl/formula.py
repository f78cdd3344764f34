"""Core formula and sequent types.

The language is classical propositional logic plus the S4 box and a dyadic
obligation operator O(body/cond).  "true" is not a constructor; the parser
desugars it to ~false.  Everything here is immutable and compared
structurally.

Node classes are frozen slotted dataclasses, one per shape: Atom, Bottom
and Obl, and two shape bases, _Unary (field f) and _Binary (fields l and
r).  Neg and Box subclass _Unary, and And, Or and Imp subclass _Binary,
each adding no field and no slot, so that an import makes five
dataclasses, not eight.  The subclasses inherit their shape's generated
methods unchanged: equality holds only between nodes of one class
(Neg(p) != Box(p)), repr names the subclass, and dataclasses.fields and
__match_args__ read the shape's fields.

Every formula node caches three values, set by its constructor.  The
dataclass makes no __init__: each node class has its own, and the
classes of one shape base get theirs from one factory that fixes the
class's sort-key tag.  The constructor writes the node's fields and
caches straight through the slots' own setters, past the frozen
__setattr__, so that a node is made by one call.  Two caches are filled
when the node is made: its sort key, a nested tuple (tag, children's keys
or the atom's name) that fixes a total structural order, and its hash,
the hash of the tuple of its fields, as the dataclass hash has it.  Both
are made from the cached values of the node's children at O(1) per node,
so a tree is filled bottom-up as it is built, at any nesting depth and
without recursion.  The cache changes no result: equality is still
structural, the order is the one the nested key tuples define, and the
hash values are the ones the dataclass hash gives, so sets iterate as
they would without the cache.  Copies and pickles are made through the
constructor too (Formula.__reduce__).

The third value is the node's ASCII text, which the printer makes
(parser.print_formula and parser.print_sequent).  The constructor sets
it to None, and the node's first ASCII print sets it to the text, made
from the texts of its children; every later print reads it.  Text is
never made when a node is made: a chain of n conjuncts would then hold
texts of about n squared characters in all, before anything refuses it.

A sequent is a NamedTuple of two formula tuples, read as multisets: cheap
to build, compared as the tuple it is and hashed as the tuple of its two
sides.  It is the one sequent type outside the search.  Proof search and
the countermodel builder hold the sets of formulas they meet as int masks
over one goal's subformula universe (calculus.Universe), which decodes
masks back into Sequents whose sides are duplicate-free and in sort_key
order.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import Iterable, NamedTuple


class Formula:
    """Base class for formula nodes; _k and _h hold the sort key and hash,
    and _t the ASCII text once printed (None before)."""

    __slots__ = ("_k", "_h", "_t")

    def __hash__(self) -> int:
        return self._h

    def __reduce__(self):
        """Copies and pickles are made through the constructor, which fills
        them."""
        return type(self), tuple(getattr(self, name) for name in self.__match_args__)


def _node(cls):
    """Make a formula node class: a frozen slotted dataclass with the cached
    hash and the class's own constructor."""
    cls = dataclass(frozen=True, slots=True, init=False)(cls)
    cls.__hash__ = Formula.__hash__
    return cls


# The constructors write through the slots' setters, bound below once the
# classes exist.  Sort keys start with a tag per class: 0 falsum, 1 atom,
# 2 Neg, 3 And, 4 Or, 5 Imp, 6 Box, 7 Obl.


@_node
class Atom(Formula):
    name: str

    def __init__(self, name: str) -> None:
        _set_name(self, name)
        _set_hash(self, hash((name,)))
        _set_key(self, (1, name))
        set_text(self, None)


@_node
class Bottom(Formula):
    def __init__(self) -> None:
        _set_hash(self, hash(()))
        _set_key(self, (0,))
        set_text(self, None)


@_node
class _Unary(Formula):
    """The shape of Neg and Box: one argument."""

    f: Formula


@_node
class _Binary(Formula):
    """The shape of And, Or and Imp: two arguments."""

    l: Formula
    r: Formula


def _unary_init(tag: int):
    """The constructor of a _Unary class whose sort keys start with tag."""

    def __init__(self, f: Formula) -> None:
        _set_f(self, f)
        _set_hash(self, hash((f,)))
        _set_key(self, (tag, f._k))
        set_text(self, None)

    return __init__


def _binary_init(tag: int):
    """The constructor of a _Binary class whose sort keys start with tag."""

    def __init__(self, l: Formula, r: Formula) -> None:
        _set_l(self, l)
        _set_r(self, r)
        _set_hash(self, hash((l, r)))
        _set_key(self, (tag, l._k, r._k))
        set_text(self, None)

    return __init__


class Neg(_Unary):
    __slots__ = ()
    __init__ = _unary_init(2)


class Box(_Unary):
    __slots__ = ()
    __init__ = _unary_init(6)


class And(_Binary):
    __slots__ = ()
    __init__ = _binary_init(3)


class Or(_Binary):
    __slots__ = ()
    __init__ = _binary_init(4)


class Imp(_Binary):
    __slots__ = ()
    __init__ = _binary_init(5)


@_node
class Obl(Formula):
    """Dyadic obligation: Obl(body, cond) reads "body is obligatory given cond"."""

    body: Formula
    cond: Formula

    def __init__(self, body: Formula, cond: Formula) -> None:
        _set_body(self, body)
        _set_cond(self, cond)
        _set_hash(self, hash((body, cond)))
        _set_key(self, (7, body._k, cond._k))
        set_text(self, None)


_set_key = Formula._k.__set__
_set_hash = Formula._h.__set__
# set_text is also the printer's (parser.print_formula and print_sequent).
set_text = Formula._t.__set__
_set_name = Atom.name.__set__
_set_f = _Unary.f.__set__
_set_l = _Binary.l.__set__
_set_r = _Binary.r.__set__
_set_body = Obl.body.__set__
_set_cond = Obl.cond.__set__


BOT = Bottom()
TOP = Neg(BOT)


def sort_key(f: Formula):
    """Total structural order on formulas, for deterministic iteration only:
    (0,) for falsum, (1, name) for an atom, and otherwise the class's tag
    followed by the keys of its arguments."""
    return f._k


_KEY = attrgetter("_k")


def sorted_formulas(fs: Iterable[Formula]) -> list[Formula]:
    return sorted(fs, key=_KEY)


class Sequent(NamedTuple):
    """Multiset sequent; both sides keep order and duplicates as written."""

    ante: tuple[Formula, ...]
    succ: tuple[Formula, ...]
