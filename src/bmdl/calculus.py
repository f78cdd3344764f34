"""Backward rule applications of the sequent calculus, over the subformula
universe of one goal.

Principal formulas are copied into the premisses, so static premisses are
always componentwise supersets of their conclusion.  A static application is
used only when every premiss strictly extends the conclusion; an
application with a premiss equal to the conclusion is an immediately
subsumed repeat and can never occur in a minimal derivation, while
enumerating it would make the search loop.

Rule groups:

    zero premiss        Init, BottomL       (search.closure_of)
    one-premiss static  NegL, NegR, AndL, OrR, ImpR, T
                                            (Universe.moves, a table per
                                             side; search.saturate)
    two-premiss static  AndR, OrL, ImpL     (Universe.first_branching)
    transitional        D1, D2, Mon, Four   (Universe.transitional;
                                             antecedent restricted to its
                                             boxed part, boxes kept)

The checker-only rules (Cut, WeakL/WeakR, ConL/ConR, Assumption) never
appear in backward search; the kernel handles them.

The universe.  The calculus is cut-free, so every formula of every premiss
is a subformula of its conclusion, and every sequent met while deciding a
goal is made of the goal's subformulas.  A Universe ranks that finite set
once, in sort_key order, and a set sequent over it is a pair of ints, the
antecedent and succedent masks: bit i stands for the formula of rank i.
Rank order is sort_key order, so visiting a mask's bits from the lowest
visits its formulas in the order every enumeration below is defined by.
"""

from __future__ import annotations

from enum import Enum
from itertools import combinations
from typing import Iterable, Iterator, NamedTuple, Optional

from .formula import (
    And,
    Atom,
    Bottom,
    Box,
    Formula,
    Imp,
    Neg,
    Obl,
    Or,
    Sequent,
    filled,
    sorted_formulas,
)
from .parser import print_formula


class RuleId(Enum):
    INIT = "Init"
    BOTTOM_L = "BottomL"
    NEG_L = "NegL"
    NEG_R = "NegR"
    AND_L = "AndL"
    AND_R = "AndR"
    OR_L = "OrL"
    OR_R = "OrR"
    IMP_L = "ImpL"
    IMP_R = "ImpR"
    T = "T"
    FOUR = "Four"
    MON = "Mon"
    D1 = "D1"
    D2 = "D2"
    CUT = "Cut"
    WEAK_L = "WeakL"
    WEAK_R = "WeakR"
    CON_L = "ConL"
    CON_R = "ConR"
    ASSUMPTION = "Assumption"


# The members as module globals, for the paths that run once per node or
# move: a global is read in a tenth of the time of a RuleId attribute.
INIT, BOTTOM_L = RuleId.INIT, RuleId.BOTTOM_L
NEG_L, NEG_R, AND_L, AND_R = RuleId.NEG_L, RuleId.NEG_R, RuleId.AND_L, RuleId.AND_R
OR_L, OR_R, IMP_L, IMP_R = RuleId.OR_L, RuleId.OR_R, RuleId.IMP_L, RuleId.IMP_R
T, FOUR, MON, D1, D2 = RuleId.T, RuleId.FOUR, RuleId.MON, RuleId.D1, RuleId.D2
CUT, WEAK_L, WEAK_R = RuleId.CUT, RuleId.WEAK_L, RuleId.WEAK_R
CON_L, CON_R, ASSUMPTION = RuleId.CON_L, RuleId.CON_R, RuleId.ASSUMPTION

ZERO_PREMISS = frozenset({INIT, BOTTOM_L})
ONE_PREMISS_STATIC = frozenset({NEG_L, NEG_R, AND_L, OR_R, IMP_R, T})
TWO_PREMISS_STATIC = frozenset({AND_R, OR_L, IMP_L})
TRANSITIONAL = frozenset({D1, D2, MON, FOUR})
CHECKER_ONLY = frozenset({CUT, WEAK_L, WEAK_R, CON_L, CON_R, ASSUMPTION})


class RuleApplication(NamedTuple):
    """A backward rule application over a universe: the ranks of its
    principals, and its premisses as (antecedent, succedent) masks."""

    rule: RuleId
    principal: tuple[int, ...]
    premisses: tuple[tuple[int, int], ...]


def ranks(m: int) -> list[int]:
    """The ranks of the bits of m, lowest first."""
    out = []
    while m:
        low = m & -m
        out.append(low.bit_length() - 1)
        m ^= low
    return out


class Universe:
    """The subformula closure of a goal, ranked in sort_key order.

    formulas[i] is the formula of rank i and rank its inverse.  first[i]
    and second[i] are the bits of its arguments (a negation's or a box's
    argument, an implication's left and right, an obligation's body and
    condition), 0 where there is none.  bottom, atoms, boxes, ands, ors,
    imps and obls are the masks of each class.  formulas[i] is the first
    object of its class the walk of the goal met; canonical() gives them
    made again where their arguments are not the formulas of their ranks.

    moves holds the one-premiss static moves, the only definition of their
    productivity: one table per side, antecedent first, giving for the rank
    of a principal the rule and the masks it adds to the antecedent and to
    the succedent, or None when no one-premiss rule takes the formula on
    that side.  The move is productive when it adds a formula absent from
    its side, so a move unproductive at a sequent stays unproductive at
    every superset (see search.saturate).  movers holds each side's mask of
    the formulas with an entry."""

    __slots__ = (
        "formulas",
        "rank",
        "first",
        "second",
        "bottom",
        "atoms",
        "boxes",
        "ands",
        "ors",
        "imps",
        "obls",
        "moves",
        "movers",
        "_canonical",
    )

    def __init__(self, goal: Sequent):
        seen: dict[Formula, Formula] = {}
        mixed = False
        todo = [*goal.ante, *goal.succ]
        while todo:
            f = todo.pop()
            n = len(seen)
            kept = seen.setdefault(f, f)
            if len(seen) == n:  # met before; as another object, an argument
                # of some formula may not be the object of its rank
                mixed = mixed or (kept is not f and type(f) not in (Atom, Bottom))
                continue
            t = type(f)
            if t is Neg or t is Box:
                todo.append(f.f)
            elif t is Obl:
                todo += (f.body, f.cond)
            elif t is And or t is Or or t is Imp:
                todo += (f.l, f.r)
        self.formulas = formulas = tuple(sorted_formulas(seen))
        n = len(formulas)
        self.rank = rank = dict(zip(formulas, range(n)))
        self.first = first = [0] * n
        self.second = second = [0] * n
        left: list = [None] * n
        right: list = [None] * n
        bottom = atoms = negs = ands = ors = imps = boxes = obls = 0
        bit = 1
        for i, f in enumerate(formulas):
            t = type(f)
            if t is Atom:
                atoms |= bit
            elif t is Neg:
                negs |= bit
                a = first[i] = 1 << rank[f.f]
                left[i] = (NEG_L, 0, a)
                right[i] = (NEG_R, a, 0)
            elif t is Box:
                boxes |= bit
                a = first[i] = 1 << rank[f.f]
                left[i] = (T, a, 0)
            elif t is Obl:
                obls |= bit
                first[i] = 1 << rank[f.body]
                second[i] = 1 << rank[f.cond]
            elif t is Bottom:
                bottom = bit
            else:
                a = first[i] = 1 << rank[f.l]
                b = second[i] = 1 << rank[f.r]
                if t is And:
                    ands |= bit
                    left[i] = (AND_L, a | b, 0)
                elif t is Or:
                    ors |= bit
                    right[i] = (OR_R, 0, a | b)
                else:
                    imps |= bit
                    right[i] = (IMP_R, a, b)
            bit <<= 1
        self.bottom, self.atoms, self.boxes, self.obls = bottom, atoms, boxes, obls
        self.ands, self.ors, self.imps = ands, ors, imps
        self.moves = (left, right)
        self.movers = (negs | ands | boxes, negs | ors | imps)
        self._canonical = None if mixed else formulas

    def mask(self, fs: Iterable[Formula]) -> int:
        """The mask of the formulas fs; ValueError for one outside the
        universe."""
        rank = self.rank
        m = 0
        for f in fs:
            i = rank.get(f)
            if i is None:
                raise ValueError(f"{print_formula(f)} is not a subformula of the universe's goal")
            m |= 1 << i
        return m

    def encode(self, s: Sequent) -> tuple[int, int]:
        return self.mask(s.ante), self.mask(s.succ)

    def members(self, m: int) -> list[Formula]:
        """The formulas of mask m, in rank order."""
        fs = self.formulas
        return [fs[i] for i in ranks(m)]

    def decode(self, s: tuple[int, int]) -> Sequent:
        """The sequent the masks s stand for, made of canonical formulas:
        each side duplicate-free and in rank order, which is sort_key
        order."""
        fs = self.canonical()
        return Sequent(tuple([fs[i] for i in ranks(s[0])]), tuple([fs[i] for i in ranks(s[1])]))

    def canonical(self) -> tuple[Formula, ...]:
        """The formulas by rank, each with arguments that are the formulas
        of their own ranks, made once per universe.

        A goal that repeats a compound subformula as two objects has ranked
        formulas whose arguments are equal to, but not the same object as,
        the formulas of their ranks.  A dict keyed by formulas, such as the
        truth sets the audit keeps, compares such keys by walking down both,
        at every lookup.  So where the walk met such a repeat, each compound
        formula is made again, arguments first, from the canonical formulas
        of its arguments: an equal formula, printed the same."""
        if self._canonical is None:
            formulas, first, second = self.formulas, self.first, self.second
            made: list = [None] * len(formulas)
            for i in range(len(formulas)):
                stack = [i]
                while stack:
                    j = stack[-1]
                    args = [b.bit_length() - 1 for b in (first[j], second[j]) if b]
                    waiting = [k for k in args if made[k] is None]
                    if waiting:
                        stack += waiting
                        continue
                    stack.pop()
                    if made[j] is None:
                        f = formulas[j]
                        made[j] = filled(type(f), *[made[k] for k in args]) if args else f
            self._canonical = tuple(made)
        return self._canonical

    def first_branching(self, ante: int, succ: int) -> Optional[RuleApplication]:
        """The first two-premiss static application at ante |- succ whose
        premisses are both productive, or None.  The enumeration order is
        AndR by succedent formula, then OrL, then ImpL by antecedent
        formula, each in rank order; productivity is one test of the
        argument bits."""
        first, second = self.first, self.second
        m = succ & self.ands
        while m:
            low = m & -m
            i = low.bit_length() - 1
            l, r = first[i], second[i]
            if not succ & (l | r):
                return RuleApplication(AND_R, (i,), ((ante, succ | l), (ante, succ | r)))
            m ^= low
        m = ante & self.ors
        while m:
            low = m & -m
            i = low.bit_length() - 1
            l, r = first[i], second[i]
            if not ante & (l | r):
                return RuleApplication(OR_L, (i,), ((ante | l, succ), (ante | r, succ)))
            m ^= low
        m = ante & self.imps
        while m:
            low = m & -m
            i = low.bit_length() - 1
            l, r = first[i], second[i]
            if not (succ & l or ante & r):
                return RuleApplication(IMP_L, (i,), ((ante, succ | l), (ante | r, succ)))
            m ^= low
        return None

    def transitional(self, ante: int, succ: int) -> Iterator[RuleApplication]:
        """D1, D2, Mon, Four instances at ante |- succ, in that (heuristically
        cheap-first) order, each rule's instances in rank order of their
        principals.

        Premisses keep the boxed part of the antecedent; everything else is
        dropped, so these premisses are never supersets of the conclusion
        and need no productivity filter."""
        first, second = self.first, self.second
        boxed = ante & self.boxes
        left = ranks(ante & self.obls)
        right = ranks(succ & self.obls)
        for i in left:
            yield RuleApplication(D1, (i,), ((boxed | first[i], 0),))
        for i, j in combinations(left, 2):
            yield RuleApplication(
                D2,
                (i, j),
                (
                    (boxed | first[i] | first[j], 0),
                    (boxed | second[i], second[j]),
                    (boxed | second[j], second[i]),
                ),
            )
        for i in left:
            for j in right:
                yield RuleApplication(
                    MON,
                    (i, j),
                    (
                        (boxed | first[i], first[j]),
                        (boxed | second[i], second[j]),
                        (boxed | second[j], second[i]),
                    ),
                )
        for i in ranks(succ & self.boxes):
            yield RuleApplication(FOUR, (i,), ((boxed, first[i]),))
