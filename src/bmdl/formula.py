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

Every formula node caches three values, set by its constructor
(Formula.__post_init__, which each node class's dataclass __init__
calls).  Two are filled when the node is made: its sort key, a nested
tuple (tag, children's keys or the atom's name) that fixes a total
structural order, and its hash, the dataclass hash of its fields.  Both
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

    def __post_init__(self) -> None:
        # the slots' own setters write the cache past the frozen __setattr__
        tag, fields = _SHAPE[type(self)]
        vals = fields(self)
        # hash((field, ...)) as the dataclass hash has it, over cached child hashes
        _set_hash(self, hash(vals))
        if tag < 2:  # falsum and atoms have no formula arguments
            _set_key(self, (tag, *vals))
        elif len(vals) == 1:
            _set_key(self, (tag, vals[0]._k))
        else:
            _set_key(self, (tag, vals[0]._k, vals[1]._k))
        set_text(self, None)

    def __hash__(self) -> int:
        return self._h

    def __reduce__(self):
        """Copies and pickles are made through the constructor, which fills
        them."""
        return type(self), _SHAPE[type(self)][1](self)


def _node(cls):
    """Make a formula node class: a frozen slotted dataclass with the cached
    hash."""
    cls = dataclass(frozen=True, slots=True)(cls)
    cls.__hash__ = Formula.__hash__
    return cls


@_node
class Atom(Formula):
    name: str


@_node
class Bottom(Formula):
    pass


@_node
class _Unary(Formula):
    """The shape of Neg and Box: one argument."""

    f: Formula


@_node
class _Binary(Formula):
    """The shape of And, Or and Imp: two arguments."""

    l: Formula
    r: Formula


class Neg(_Unary):
    __slots__ = ()


class Box(_Unary):
    __slots__ = ()


class And(_Binary):
    __slots__ = ()


class Or(_Binary):
    __slots__ = ()


class Imp(_Binary):
    __slots__ = ()


@_node
class Obl(Formula):
    """Dyadic obligation: Obl(body, cond) reads "body is obligatory given cond"."""

    body: Formula
    cond: Formula


# Per node class: the tag that starts its sort key, and its field values in
# field order, the tuple the dataclass hash is taken of.
_SHAPE = {
    Bottom: (0, lambda g: ()),
    Atom: (1, lambda g: (g.name,)),
    Neg: (2, lambda g: (g.f,)),
    And: (3, attrgetter("l", "r")),
    Or: (4, attrgetter("l", "r")),
    Imp: (5, attrgetter("l", "r")),
    Box: (6, lambda g: (g.f,)),
    Obl: (7, attrgetter("body", "cond")),
}


# set_text is also the printer's (parser.print_formula and print_sequent).
_set_key = Formula._k.__set__
_set_hash = Formula._h.__set__
set_text = Formula._t.__set__


BOT = Bottom()
TOP = Neg(BOT)


def sort_key(f: Formula):
    """Total structural order on formulas, for deterministic iteration only:
    (0,) for falsum, (1, name) for an atom, and otherwise the constructor's
    tag (_SHAPE) followed by the keys of its arguments."""
    return f._k


_KEY = attrgetter("_k")


def sorted_formulas(fs: Iterable[Formula]) -> list[Formula]:
    return sorted(fs, key=_KEY)


class Sequent(NamedTuple):
    """Multiset sequent; both sides keep order and duplicates as written."""

    ante: tuple[Formula, ...]
    succ: tuple[Formula, ...]


def sequent(ante: Iterable[Formula] = (), succ: Iterable[Formula] = ()) -> Sequent:
    return Sequent(tuple(ante), tuple(succ))
