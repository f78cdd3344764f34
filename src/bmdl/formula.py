"""Core formula and sequent types.

The language is classical propositional logic plus the S4 box and a dyadic
obligation operator O(body/cond).  "true" is not a constructor; the parser
desugars it to ~false.  Everything here is immutable and compared
structurally.

Every formula node caches two values: its sort key, a nested tuple
(tag, children's keys or the atom's name) that fixes a total structural
order, and its hash, the dataclass hash of its fields.  Both are filled
together from the cached values of the node's children, and are reused
from then on.  A builder that makes trees bottom-up (the parser) fills
each node as it makes it, with filled(), at O(1) per node.  Any other
node is filled lazily, on its first hash or sort key: the fill walks down
with an explicit stack to the deepest uncached nodes and fills bottom-up,
so it needs no recursion and works at any nesting depth.  The cache
changes no result: equality is still structural, the order is the one the
nested key tuples define, and the hash values are the ones the dataclass
hash gives, so sets iterate as they would without the cache.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import Iterable


@dataclass(frozen=True)
class Formula:
    """Base class for formula nodes; _k and _h hold the cached sort key and
    hash once filled."""

    __slots__ = ("_k", "_h")

    def __hash__(self) -> int:
        try:
            return self._h
        except AttributeError:
            _fill(self)
            return self._h


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
class Neg(Formula):
    f: Formula


@_node
class And(Formula):
    l: Formula
    r: Formula


@_node
class Or(Formula):
    l: Formula
    r: Formula


@_node
class Imp(Formula):
    l: Formula
    r: Formula


@_node
class Box(Formula):
    f: Formula


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


# The slots' own setters: they write the cache past the frozen __setattr__.
_set_key = Formula._k.__set__
_set_hash = Formula._h.__set__


def _fill(f: Formula) -> None:
    """Cache the sort key and hash of f and of every uncached node below it,
    children first, with an explicit stack instead of recursion."""
    stack = [f]
    while stack:
        g = stack[-1]
        shape = _SHAPE.get(type(g))
        if shape is None:
            raise TypeError(f"not a formula: {g!r}")
        tag, fields = shape
        vals = fields(g)
        if tag < 2:  # falsum and atoms have no formula arguments
            key = (tag, *vals)
        else:
            ready = True
            for v in vals:
                if not hasattr(v, "_k"):
                    stack.append(v)
                    ready = False
            if not ready:
                continue
            key = (tag, vals[0]._k) if len(vals) == 1 else (tag, vals[0]._k, vals[1]._k)
        stack.pop()
        # hash((field, ...)) as the dataclass hash has it, over cached child hashes
        _set_hash(g, hash(vals))
        _set_key(g, key)


_TAG = {cls: tag for cls, (tag, _) in _SHAPE.items()}


def filled(cls, *fields):
    """cls(*fields) with its cache filled at once from the fields' caches:
    the fields are filled formulas, or the name of an Atom.  It computes
    what _fill would, for this one node."""
    node = cls(*fields)
    _set_hash(node, hash(fields))
    if cls is Atom:
        _set_key(node, (1, *fields))
    elif len(fields) == 1:
        _set_key(node, (_TAG[cls], fields[0]._k))
    else:
        _set_key(node, (_TAG[cls], fields[0]._k, fields[1]._k))
    return node


BOT = Bottom()
TOP = Neg(BOT)
_fill(TOP)  # and BOT below it: the parser hands both out as they are


def subformulas(f: Formula) -> frozenset[Formula]:
    """f together with all its subformulas."""
    out: set[Formula] = set()
    stack = [f]
    while stack:
        g = stack.pop()
        if g in out:
            continue
        out.add(g)
        match g:
            case Neg(h) | Box(h):
                stack.append(h)
            case And(l, r) | Or(l, r) | Imp(l, r):
                stack.extend((l, r))
            case Obl(b, c):
                stack.extend((b, c))
    return frozenset(out)


def sort_key(f: Formula):
    """Total structural order on formulas, for deterministic iteration only:
    (0,) for falsum, (1, name) for an atom, and otherwise the constructor's
    tag (_SHAPE) followed by the keys of its arguments."""
    try:
        return f._k
    except AttributeError:
        _fill(f)
        return f._k


_KEY = attrgetter("_k")


def sorted_formulas(fs: Iterable[Formula]) -> list[Formula]:
    out = list(fs)
    try:
        out.sort(key=_KEY)
    except AttributeError:  # some key not yet filled; sort leaves out as it was
        for f in out:
            sort_key(f)
        out.sort(key=_KEY)
    return out


@dataclass(frozen=True)
class Sequent:
    """Multiset sequent; both sides keep order and duplicates as written."""

    ante: tuple[Formula, ...]
    succ: tuple[Formula, ...]


@dataclass(frozen=True)
class SetSequent:
    """Set-based sequent, the object proof search actually works on."""

    ante: frozenset[Formula]
    succ: frozenset[Formula]

    def __le__(self, other: "SetSequent") -> bool:
        """Componentwise containment (subsumption modulo weakening)."""
        return self.ante <= other.ante and self.succ <= other.succ


def sequent(ante: Iterable[Formula] = (), succ: Iterable[Formula] = ()) -> Sequent:
    return Sequent(tuple(ante), tuple(succ))


def set_sequent(ante: Iterable[Formula] = (), succ: Iterable[Formula] = ()) -> SetSequent:
    return SetSequent(frozenset(ante), frozenset(succ))


def to_set_sequent(s: Sequent) -> SetSequent:
    return SetSequent(frozenset(s.ante), frozenset(s.succ))


def from_set_sequent(s: SetSequent) -> Sequent:
    """The canonical duplicate-free multiset reading, sides sorted."""
    return Sequent(tuple(sorted_formulas(s.ante)), tuple(sorted_formulas(s.succ)))


def sequent_formulas(s: Sequent | SetSequent) -> frozenset[Formula]:
    return frozenset(s.ante) | frozenset(s.succ)


def sequent_subformulas(s: Sequent | SetSequent) -> frozenset[Formula]:
    out: frozenset[Formula] = frozenset()
    for f in sequent_formulas(s):
        out |= subformulas(f)
    return out

