"""Backward rule applications of the sequent calculus, at the set level.

Principal formulas are copied into the premisses, so static premisses are
always componentwise supersets of their conclusion.  A static application is
used only when every premiss strictly extends the conclusion; an
application with a premiss equal to the conclusion is an immediately
subsumed repeat and can never occur in a minimal derivation, while
enumerating it would make the search loop.

Rule groups:

    zero premiss        Init, BottomL       (search.closure_of)
    one-premiss static  NegL, NegR, AndL, OrR, ImpR, T
                                            (ONE_PREMISS_MOVES, a table per
                                             side; search.saturate)
    two-premiss static  AndR, OrL, ImpL
    transitional        D1, D2, Mon, Four   (antecedent restricted to its
                                             boxed part, boxes kept)

The checker-only rules (Cut, WeakL/WeakR, ConL/ConR, Assumption) never
appear in backward search; the kernel handles them.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from typing import Iterator

from .formula import (
    And,
    Box,
    Formula,
    Imp,
    Neg,
    Obl,
    Or,
    SetSequent,
    boxed_part,
    sorted_formulas,
)


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


ZERO_PREMISS = frozenset({RuleId.INIT, RuleId.BOTTOM_L})
ONE_PREMISS_STATIC = frozenset(
    {RuleId.NEG_L, RuleId.NEG_R, RuleId.AND_L, RuleId.OR_R, RuleId.IMP_R, RuleId.T}
)
TWO_PREMISS_STATIC = frozenset({RuleId.AND_R, RuleId.OR_L, RuleId.IMP_L})
TRANSITIONAL = frozenset({RuleId.D1, RuleId.D2, RuleId.MON, RuleId.FOUR})
CHECKER_ONLY = frozenset(
    {RuleId.CUT, RuleId.WEAK_L, RuleId.WEAK_R, RuleId.CON_L, RuleId.CON_R, RuleId.ASSUMPTION}
)


@dataclass(frozen=True)
class RuleApplication:
    rule: RuleId
    principal: tuple[Formula, ...]
    premisses: tuple[SetSequent, ...]


def _grown(s: SetSequent, ante=(), succ=()) -> SetSequent:
    return SetSequent(
        s.ante.union(ante) if ante else s.ante,
        s.succ.union(succ) if succ else s.succ,
    )


# The one-premiss static moves, the only definition of their productivity:
# one table per side, antecedent first, from the constructor of a principal
# f to a function of f and the two sides of the sequent.  It returns the
# rule with the formulas the move adds to the antecedent and to the
# succedent, each without repeats, or None when the move is unproductive,
# that is when everything it would add is already there.  Each test only
# asks whether some formula is absent, so a move unproductive at a sequent
# stays unproductive at every superset (see search.saturate).


def _neg_l(f, ante, succ):
    return None if f.f in succ else (RuleId.NEG_L, (), (f.f,))


def _and_l(f, ante, succ):
    l, r = f.l, f.r
    if l in ante and r in ante:
        return None
    return RuleId.AND_L, (l,) if l == r else (l, r), ()


def _t(f, ante, succ):
    return None if f.f in ante else (RuleId.T, (f.f,), ())


def _neg_r(f, ante, succ):
    return None if f.f in ante else (RuleId.NEG_R, (f.f,), ())


def _or_r(f, ante, succ):
    l, r = f.l, f.r
    if l in succ and r in succ:
        return None
    return RuleId.OR_R, (), (l,) if l == r else (l, r)


def _imp_r(f, ante, succ):
    if f.l in ante and f.r in succ:
        return None
    return RuleId.IMP_R, (f.l,), (f.r,)


ONE_PREMISS_MOVES = (
    {Neg: _neg_l, And: _and_l, Box: _t},
    {Neg: _neg_r, Or: _or_r, Imp: _imp_r},
)


def iter_two_premiss_static_applications(s: SetSequent) -> Iterator[RuleApplication]:
    """The two-premiss static applications at s whose premisses are both
    productive, in enumeration order: AndR by succedent formula, then OrL,
    then ImpL by antecedent formula, each in sort_key order.  Each side is
    filtered by constructor before it is sorted, and productivity is tested
    by membership before the premisses are built."""
    ante, succ = s.ante, s.succ
    for f in sorted_formulas([f for f in succ if isinstance(f, And)]):
        if f.l not in succ and f.r not in succ:
            yield RuleApplication(
                RuleId.AND_R, (f,), (_grown(s, succ=(f.l,)), _grown(s, succ=(f.r,)))
            )
    ors_imps = sorted_formulas([f for f in ante if isinstance(f, (Or, Imp))])
    for f in ors_imps:
        if isinstance(f, Or) and f.l not in ante and f.r not in ante:
            yield RuleApplication(
                RuleId.OR_L, (f,), (_grown(s, ante=(f.l,)), _grown(s, ante=(f.r,)))
            )
    for f in ors_imps:
        if isinstance(f, Imp) and f.l not in succ and f.r not in ante:
            yield RuleApplication(
                RuleId.IMP_L, (f,), (_grown(s, succ=(f.l,)), _grown(s, ante=(f.r,)))
            )


def transitional_applications(s: SetSequent) -> list[RuleApplication]:
    """D1, D2, Mon, Four instances, in that (heuristically cheap-first) order.

    Premisses keep the boxed part of the antecedent; everything else is
    dropped, so these premisses are never supersets of the conclusion and
    need no productivity filter.
    """
    boxed = boxed_part(s.ante)
    obls_ante = sorted_formulas([f for f in s.ante if isinstance(f, Obl)])
    obls_succ = sorted_formulas([f for f in s.succ if isinstance(f, Obl)])
    apps = []
    for o in obls_ante:
        apps.append(
            RuleApplication(
                RuleId.D1, (o,), (SetSequent(boxed | {o.body}, frozenset()),)
            )
        )
    for o1, o2 in itertools.combinations(obls_ante, 2):
        apps.append(
            RuleApplication(
                RuleId.D2,
                (o1, o2),
                (
                    SetSequent(boxed | {o1.body, o2.body}, frozenset()),
                    SetSequent(boxed | {o1.cond}, frozenset({o2.cond})),
                    SetSequent(boxed | {o2.cond}, frozenset({o1.cond})),
                ),
            )
        )
    for o1 in obls_ante:
        for o2 in obls_succ:
            apps.append(
                RuleApplication(
                    RuleId.MON,
                    (o1, o2),
                    (
                        SetSequent(boxed | {o1.body}, frozenset({o2.body})),
                        SetSequent(boxed | {o1.cond}, frozenset({o2.cond})),
                        SetSequent(boxed | {o2.cond}, frozenset({o1.cond})),
                    ),
                )
            )
    for f in sorted_formulas([f for f in s.succ if isinstance(f, Box)]):
        apps.append(
            RuleApplication(RuleId.FOUR, (f,), (SetSequent(boxed, frozenset({f.f})),))
        )
    return apps
