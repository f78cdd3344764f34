"""Core formula and sequent types.

The language is classical propositional logic plus the S4 box and a dyadic
obligation operator O(body/cond).  "true" is not a constructor; the parser
desugars it to ~false.  Everything here is immutable and compared
structurally.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable


@dataclass(frozen=True)
class Formula:
    """Base class for formula nodes."""


@dataclass(frozen=True)
class Atom(Formula):
    name: str


@dataclass(frozen=True)
class Bottom(Formula):
    pass


@dataclass(frozen=True)
class Neg(Formula):
    f: Formula


@dataclass(frozen=True)
class And(Formula):
    l: Formula
    r: Formula


@dataclass(frozen=True)
class Or(Formula):
    l: Formula
    r: Formula


@dataclass(frozen=True)
class Imp(Formula):
    l: Formula
    r: Formula


@dataclass(frozen=True)
class Box(Formula):
    f: Formula


@dataclass(frozen=True)
class Obl(Formula):
    """Dyadic obligation: Obl(body, cond) reads "body is obligatory given cond"."""

    body: Formula
    cond: Formula


BOT = Bottom()
TOP = Neg(BOT)


def size(f: Formula) -> int:
    """Number of constructor nodes in f."""
    match f:
        case Atom(_) | Bottom():
            return 1
        case Neg(g) | Box(g):
            return 1 + size(g)
        case And(l, r) | Or(l, r) | Imp(l, r):
            return 1 + size(l) + size(r)
        case Obl(b, c):
            return 1 + size(b) + size(c)
    raise TypeError(f"not a formula: {f!r}")


def modal_depth(f: Formula) -> int:
    """Maximum nesting of [] and O( / )."""
    match f:
        case Atom(_) | Bottom():
            return 0
        case Neg(g):
            return modal_depth(g)
        case And(l, r) | Or(l, r) | Imp(l, r):
            return max(modal_depth(l), modal_depth(r))
        case Box(g):
            return 1 + modal_depth(g)
        case Obl(b, c):
            return 1 + max(modal_depth(b), modal_depth(c))
    raise TypeError(f"not a formula: {f!r}")


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


def atoms(f: Formula) -> frozenset[str]:
    return frozenset(g.name for g in subformulas(f) if isinstance(g, Atom))


def sort_key(f: Formula):
    """Total structural order on formulas, for deterministic iteration only."""
    match f:
        case Bottom():
            return (0,)
        case Atom(name):
            return (1, name)
        case Neg(g):
            return (2, sort_key(g))
        case And(l, r):
            return (3, sort_key(l), sort_key(r))
        case Or(l, r):
            return (4, sort_key(l), sort_key(r))
        case Imp(l, r):
            return (5, sort_key(l), sort_key(r))
        case Box(g):
            return (6, sort_key(g))
        case Obl(b, c):
            return (7, sort_key(b), sort_key(c))
    raise TypeError(f"not a formula: {f!r}")


def sorted_formulas(fs: Iterable[Formula]) -> list[Formula]:
    return sorted(fs, key=sort_key)


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


def boxed_part(fs: Iterable[Formula]) -> frozenset[Formula]:
    """The boxed formulas of fs, boxes kept."""
    return frozenset(f for f in fs if isinstance(f, Box))


def conj_all(fs: Iterable[Formula]) -> Formula:
    """Right-nested conjunction; empty conjunction is ~false."""
    items = list(fs)
    if not items:
        return TOP
    out = items[-1]
    for f in reversed(items[:-1]):
        out = And(f, out)
    return out


def disj_all(fs: Iterable[Formula]) -> Formula:
    """Right-nested disjunction; empty disjunction is false."""
    items = list(fs)
    if not items:
        return BOT
    out = items[-1]
    for f in reversed(items[:-1]):
        out = Or(f, out)
    return out
