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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Union

from .calculus import RuleId
# build is not called here, but stays bound: perfbench/tracing.py wraps
# consistency.build
from .countermodel import CounterModelResult, build, certify  # noqa: F401
from .formula import BOT, Box, Formula, Sequent
from .kernel import Derivation
from .search import Budget, DEFAULT_BUDGET, SearchResult, prove

FALSUM_SEQUENT = Sequent((), (BOT,))


def reduction_sequent(assumptions: Iterable[Formula], goal: Optional[Sequent] = None) -> Sequent:
    """The goal with the boxed assumptions added on the left."""
    if goal is None:
        goal = FALSUM_SEQUENT
    boxed = tuple(Box(a) for a in assumptions)
    return Sequent(boxed + goal.ante, goal.succ)


def assumption_sequents(assumptions: Iterable[Formula]) -> tuple[Sequent, ...]:
    """The sequent form of the assumptions, for the kernel's Assumption rule."""
    return tuple(Sequent((), (a,)) for a in assumptions)


def derives(
    assumptions: Iterable[Formula],
    goal: Sequent,
    budget: Union[int, Budget] = DEFAULT_BUDGET,
    *,
    atomic_init: bool = False,
) -> SearchResult:
    return prove(reduction_sequent(assumptions, goal), budget, atomic_init=atomic_init)


def discharge(
    reduction: Derivation, assumptions: Iterable[Formula], goal: Sequent
) -> Derivation:
    """Peel the boxed assumptions off a reduction derivation.

    For each assumption a, in order, the current derivation (whose
    conclusion still carries [] a on the left) is cut against Four applied
    to the Assumption leaf |- a, removing one boxed copy.  The final
    conclusion is the bare goal.
    """
    d = reduction
    rest = list(assumptions)
    while rest:
        a = rest.pop(0)
        leaf = Derivation(Sequent((), (a,)), RuleId.ASSUMPTION)
        boxed = Derivation(Sequent((), (Box(a),)), RuleId.FOUR, (Box(a),), (leaf,))
        conclusion = Sequent(
            tuple(Box(b) for b in rest) + goal.ante, goal.succ
        )
        d = Derivation(conclusion, RuleId.CUT, (Box(a),), (boxed, d))
    return d


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
    *,
    atomic_init: bool = False,
    with_model: bool = True,
) -> ConsistencyResult:
    """Decide outer consistency and produce the relevant certificate.

    Inconsistent sets come with a derivation of |- false from Assumption
    leaves; consistent ones, unless with_model is off, with a certified
    countermodel of the reduction sequent, whose root world satisfies every
    boxed assumption."""
    fixed = tuple(assumptions)
    b = Budget.ensure(budget)
    target = reduction_sequent(fixed, FALSUM_SEQUENT)
    if with_model:
        res, cm = certify(target, b, atomic_init=atomic_init)
    else:
        res, cm = prove(target, b, atomic_init=atomic_init), None
    if res.accepted:
        witness = discharge(res.derivation, fixed, FALSUM_SEQUENT)
        return ConsistencyResult(fixed, False, witness, None, b.used)
    return ConsistencyResult(fixed, True, None, cm, b.used)
