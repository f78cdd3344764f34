"""Reasoning from assumption sets.

A finite set of assumptions derives a sequent exactly when the sequent
prefixed with the boxed assumptions is derivable outright, so both
derivability from assumptions and outer consistency (the assumptions do
not yield the empty-left sequent with false on the right) reduce to plain
proof search.

The reduction verdict can be discharged into a derivation that literally
starts from the assumptions: each boxed assumption it carries is cut away
against a Four inference over an Assumption leaf.  The result is
checkable by the kernel with the assumption sequents supplied, which ties
the two readings of derivability together.

Only the assumptions the proof uses are cited.  The search is told how
many boxed assumptions lead the reduction (search.prove's hypotheses), and
assembles its derivation over one copy of each box its proof reads, less
those the goal's own antecedent holds.  discharge cuts exactly those, so
an inconsistency witness shows which assumptions clash, and an assumption
that takes no part gets no Cut, no Four and no Assumption leaf.

Each boxed assumption is made once, as one Box node, by reduction_sequent.
The search and the countermodel work on those nodes, and discharge reuses
them, read off the reduction's conclusion, as the Cut principals and the
Four and Cut conclusions of the witness.  So one object stands for each
boxed assumption throughout a certificate: the kernel compares it to
itself, and the printer keeps its text on it.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Optional, Union

from .calculus import ASSUMPTION, CUT, FOUR
# build is not called here, but stays bound: perfbench/tracing.py wraps
# consistency.build
from .countermodel import CounterModelResult, build, certify  # noqa: F401
from .formula import BOT, Box, Formula, Sequent
from .kernel import Derivation
from .parser import print_formula
from .search import Budget, DEFAULT_BUDGET

FALSUM_SEQUENT = Sequent((), (BOT,))


def reduction_sequent(assumptions: Iterable[Formula], goal: Optional[Sequent] = None) -> Sequent:
    """The goal with the boxed assumptions added on the left, each box one
    node made here."""
    if goal is None:
        goal = FALSUM_SEQUENT
    boxed = tuple(Box(a) for a in assumptions)
    return Sequent(boxed + goal.ante, goal.succ)


def assumption_sequents(assumptions: Iterable[Formula]) -> tuple[Sequent, ...]:
    """The sequent form of the assumptions, for the kernel's Assumption rule."""
    return tuple(Sequent((), (a,)) for a in assumptions)


def discharge(
    reduction: Derivation, assumptions: Iterable[Formula], goal: Sequent
) -> Derivation:
    """Peel the boxed assumptions off a reduction derivation.

    The boxes cut are exactly those the reduction's conclusion carries
    ahead of the goal's antecedent, as they stand and in their order: all
    the assumptions' boxes for a derivation of reduction_sequent, the used
    ones alone for one that search.prove assembled with hypotheses.  For
    each box [] a, in turn, the current derivation (whose conclusion still
    carries [] a on the left) is cut against Four applied to the
    Assumption leaf |- a, removing it.  The final conclusion is the bare
    goal.  A leading formula that is not [] a for an assumption a raises
    ValueError.
    """
    ante = reduction.conclusion.ante
    boxes = ante[: len(ante) - len(goal.ante)]
    allowed = set(assumptions)
    d = reduction
    for i, box in enumerate(boxes):
        if type(box) is not Box or box.f not in allowed:
            raise ValueError(f"{print_formula(box)} leads the reduction but boxes no assumption")
        leaf = Derivation(Sequent((), (box.f,)), ASSUMPTION)
        boxed = Derivation(Sequent((), (box,)), FOUR, (box,), (leaf,))
        conclusion = Sequent(boxes[i + 1 :] + goal.ante, goal.succ)
        d = Derivation(conclusion, CUT, (box,), (boxed, d))
    return d


class ConsistencyResult(NamedTuple):
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

    Inconsistent sets come with a derivation of |- false from the
    Assumption leaves of the assumptions its proof uses; consistent ones
    with a certified countermodel of the reduction sequent, whose root
    world satisfies every boxed assumption."""
    fixed = tuple(assumptions)
    b = Budget.ensure(budget)
    res, cm = certify(reduction_sequent(fixed, FALSUM_SEQUENT), b, hypotheses=len(fixed))
    if res.accepted:
        witness = discharge(res.derivation, fixed, FALSUM_SEQUENT)
        return ConsistencyResult(fixed, False, witness, None, b.used)
    return ConsistencyResult(fixed, True, None, cm, b.used)
