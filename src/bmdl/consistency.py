"""Reasoning from assumption sets.

A finite set of assumptions derives a sequent exactly when the sequent
prefixed with the boxed assumptions is derivable outright, so both
derivability from assumptions and outer consistency (the assumptions do
not yield the empty-left sequent with false on the right) reduce to plain
proof search.

The reduction verdict can be discharged into a derivation that literally
starts from the assumptions: each boxed assumption is cut away against a
Four inference over an Assumption leaf.  The result is checkable by the
kernel with the assumption sequents supplied, which ties the two readings
of derivability together.

Each boxed assumption is made once, as a filled node (formula.filled), by
reduction_sequent.  The search and the countermodel work on those nodes,
and discharge reuses them, read off the reduction's conclusion, as the
Cut principals and the Four and Cut conclusions of the witness.  So one
object stands for each boxed assumption throughout a certificate: the
kernel compares it to itself, and the printer keeps its text on it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Union

from .calculus import ASSUMPTION, CUT, FOUR
# build is not called here, but stays bound: perfbench/tracing.py wraps
# consistency.build
from .countermodel import CounterModelResult, build, certify  # noqa: F401
from .formula import BOT, Box, Formula, Sequent, filled
from .kernel import Derivation
from .search import Budget, DEFAULT_BUDGET

FALSUM_SEQUENT = Sequent((), (BOT,))


def reduction_sequent(assumptions: Iterable[Formula], goal: Optional[Sequent] = None) -> Sequent:
    """The goal with the boxed assumptions added on the left, each box a
    filled node."""
    if goal is None:
        goal = FALSUM_SEQUENT
    boxed = tuple(filled(Box, a) for a in assumptions)
    return Sequent(boxed + goal.ante, goal.succ)


def assumption_sequents(assumptions: Iterable[Formula]) -> tuple[Sequent, ...]:
    """The sequent form of the assumptions, for the kernel's Assumption rule."""
    return tuple(Sequent((), (a,)) for a in assumptions)


def discharge(
    reduction: Derivation, assumptions: Iterable[Formula], goal: Sequent
) -> Derivation:
    """Peel the boxed assumptions off a reduction derivation.

    For each assumption a, in order, the current derivation (whose
    conclusion still carries [] a on the left) is cut against Four applied
    to the Assumption leaf |- a, removing one boxed copy.  The final
    conclusion is the bare goal.

    The boxes are the reduction conclusion's own objects when it starts
    with [] a for each assumption in order, as reduction_sequent makes it;
    otherwise each is made once, filled, and used wherever it occurs.
    """
    fixed = tuple(assumptions)
    boxes = _boxes(reduction.conclusion.ante, fixed)
    d = reduction
    for i, (a, box) in enumerate(zip(fixed, boxes)):
        leaf = Derivation(Sequent((), (a,)), ASSUMPTION)
        boxed = Derivation(Sequent((), (box,)), FOUR, (box,), (leaf,))
        conclusion = Sequent(boxes[i + 1 :] + goal.ante, goal.succ)
        d = Derivation(conclusion, CUT, (box,), (boxed, d))
    return d


def _boxes(ante: tuple[Formula, ...], assumptions: tuple[Formula, ...]) -> tuple[Formula, ...]:
    """[] a for each assumption a, in order: the first formulas of ante
    when they are those boxes, else new filled ones."""
    lead = ante[: len(assumptions)]
    if len(lead) == len(assumptions) and all(
        type(b) is Box and b.f == a for b, a in zip(lead, assumptions)
    ):
        return lead
    return tuple(filled(Box, a) for a in assumptions)


@dataclass(frozen=True)
class ConsistencyResult:
    assumptions: tuple[Formula, ...]
    consistent: bool
    witness: Optional[Derivation]
    countermodel: Optional[CounterModelResult]
    steps_used: int


def check_consistency(
    assumptions: Iterable[Formula],
    budget: Union[int, Budget] = DEFAULT_BUDGET,
) -> ConsistencyResult:
    """Decide outer consistency and produce the relevant certificate.

    Inconsistent sets come with a derivation of |- false from Assumption
    leaves; consistent ones with a certified countermodel of the reduction
    sequent, whose root world satisfies every boxed assumption."""
    fixed = tuple(assumptions)
    b = Budget.ensure(budget)
    res, cm = certify(reduction_sequent(fixed, FALSUM_SEQUENT), b)
    if res.accepted:
        witness = discharge(res.derivation, fixed, FALSUM_SEQUENT)
        return ConsistencyResult(fixed, False, witness, None, b.used)
    return ConsistencyResult(fixed, True, None, cm, b.used)
