"""Backward proof search over set sequents.

The search works on a history, a nonempty list of set sequents whose last
entry is the current goal.  A goal is first saturated under the one-premiss
static rules (replacing it in the history), then closed if it is initial.
Otherwise, if a two-premiss static rule (AndR, OrL, ImpL) applies, the
search commits to the first such application: the goal is accepted exactly
when both of its premisses are, and no other rule is tried.  Only a goal
that no static rule changes is attacked with the transitional rules, each
application in turn.  Transitional premisses are loop checked: a premiss is
refused when it is componentwise contained in some sequent of the history,
the current one included.  Static premisses need no check because the
application filter keeps only strictly growing premisses.

Why committing is complete.  Static premisses are supersets of their
conclusion, and weakening is height-preserving admissible, so a static rule
is invertible: if its conclusion has a derivation of height n, each premiss
has one of height at most n.  Write ht(S) for the least height of a
derivation of S, infinite when S is underivable.  Call a search call
well placed when every sequent in its history has ht at least that of its
goal; the root call, with a history of one, is well placed.  By induction
over the finite tree of calls, a well-placed call on a derivable goal
succeeds:

  * saturation only adds formulas, so ht(sat) <= ht(goal) and the history
    with sat in place of the goal stays well placed;
  * at a branching node both premisses of the first application have ht
    at most ht(sat), so both child calls are well placed and, by
    induction, succeed; so if either fails, the conclusion itself is
    underivable and no other rule need be tried;
  * at a node no static rule changes, a least-height derivation of sat
    cannot end in a static rule, since each such application has a
    premiss equal to sat, nor in a zero-premiss rule, since sat is not
    initial; so it ends in a transitional application whose premisses P
    have ht(P) < ht(sat).  The loop check never refuses such a P: P <= A
    for A in the history would give ht(A) <= ht(P) < ht(sat) <= ht(A).
    The child calls are well placed, succeed by induction, and the search
    tries every transitional application, this one included.

Conversely, when a well-placed call fails, its goal is underivable.  This
is what committing uses: at a well-placed branching node, a committed
premiss that fails under the history check has a well-placed call too, so
it is underivable, and then so is the node's sequent, which it contains.  A
call that is not well placed sits below a transitional premiss harder than
one of its ancestors; its failure only abandons that one transitional
application, never the one a least-height derivation uses.  So the verdict
of the root call is exactly the derivability of the goal.  The history
check, and its use beside invertible rules applied without backtracking,
follow Heuerding, Seyfried & Zimmermann (1996), on loop checks for backward
proof search in modal logics.

countermodel._Builder.resolve relies on the same invariant.  Its oracle
verdicts come from root calls, so they are exact; it refines an underivable
world sequent along apps[0] alone, the application the search commits to,
and raises when no premiss of it is underivable, which the rule's own
soundness rules out.

Accepted goals come back as a tree of ProofNode records, which
assemble_derivation turns into an exact multiset derivation for the kernel.
The translation keeps one invariant: the multiset conclusion built for a
node always has the node's set sequent as its support, so the kernel-level
premisses of each rule line up with the set-level premisses the search used
and no weakening or contraction is ever inserted.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from .calculus import (
    TRANSITIONAL,
    RuleApplication,
    RuleId,
    iter_one_premiss_static_applications,
    iter_two_premiss_static_applications,
    transitional_applications,
)
from .formula import (
    Atom,
    BOT,
    Formula,
    Sequent,
    SetSequent,
    sorted_formulas,
    to_set_sequent,
)
from .kernel import Derivation, premisses_for

DEFAULT_BUDGET = 1_000_000


class BudgetExceeded(RuntimeError):
    def __init__(self, limit: int):
        self.limit = limit
        super().__init__(f"search budget of {limit} steps exhausted")


class Budget:
    """Mutable step counter, shareable between related searches so that a
    whole batch of oracle calls stays within one bound."""

    __slots__ = ("limit", "used")

    def __init__(self, limit: int = DEFAULT_BUDGET):
        self.limit = limit
        self.used = 0

    def spend(self, n: int = 1) -> None:
        self.used += n
        if self.used > self.limit:
            raise BudgetExceeded(self.limit)

    @classmethod
    def ensure(cls, b: Union[int, "Budget"]) -> "Budget":
        return b if isinstance(b, Budget) else cls(b)


@dataclass(frozen=True)
class SatStep:
    """One saturation move: the rule, its principal, and the set sequent it
    produced."""

    rule: RuleId
    principal: tuple[Formula, ...]
    result: SetSequent


def saturate(s: SetSequent) -> tuple[tuple[SatStep, ...], SetSequent]:
    """Close s under the one-premiss static rules, recording the moves.

    Each move strictly grows one side inside the subformula universe, so the
    scan reaches a fixpoint.  Each move is the first productive application
    in the fixed enumeration order, one_premiss_static_applications(s)[0],
    found lazily: the scan stops at it and builds no other premiss.  The
    scan restarts after every move, because a move can add a formula that
    sorts before the one it used.
    """
    steps: list[SatStep] = []
    while True:
        app = next(iter_one_premiss_static_applications(s), None)
        if app is None:
            return tuple(steps), s
        s = app.premisses[0]
        steps.append(SatStep(app.rule, app.principal, s))


def closure_of(
    s: SetSequent, atomic_init: bool = False
) -> Optional[tuple[RuleId, tuple[Formula, ...]]]:
    """The zero-premiss rule closing s, if any, with its principal."""
    if BOT in s.ante:
        return (RuleId.BOTTOM_L, ())
    shared = s.ante & s.succ
    if atomic_init:
        shared = frozenset(f for f in shared if isinstance(f, Atom))
    if shared:
        return (RuleId.INIT, (sorted_formulas(shared)[0],))
    return None


@dataclass(frozen=True)
class ProofNode:
    """Accepted search node.  Exactly one of closure and application is set."""

    start: SetSequent
    steps: tuple[SatStep, ...]
    saturated: SetSequent
    closure: Optional[tuple[RuleId, tuple[Formula, ...]]]
    application: Optional[RuleApplication]
    children: tuple["ProofNode", ...]


class _Search:
    def __init__(self, budget: Budget, atomic_init: bool):
        self.budget = budget
        self.atomic_init = atomic_init

    def run(self, goal: SetSequent) -> Optional[ProofNode]:
        return self._node((goal,))

    def _node(self, history: tuple[SetSequent, ...]) -> Optional[ProofNode]:
        start = history[-1]
        steps, sat = saturate(start)
        self.budget.spend(1 + len(steps))
        cl = closure_of(sat, self.atomic_init)
        if cl is not None:
            return ProofNode(start, steps, sat, cl, None, ())
        h = history[:-1] + (sat,)
        # branching static rules are invertible: the first one settles the node
        branch = next(iter_two_premiss_static_applications(sat), None)
        for app in (branch,) if branch is not None else transitional_applications(sat):
            kids = self._try(h, app)
            if kids is not None:
                return ProofNode(start, steps, sat, None, app, kids)
        return None

    def _try(
        self, h: tuple[SetSequent, ...], app: RuleApplication
    ) -> Optional[tuple[ProofNode, ...]]:
        """Evaluate an application's premisses left to right; None as soon as
        one premiss loops or is rejected, the remaining ones unexplored.
        Only transitional premisses are loop checked."""
        loopcheck = app.rule in TRANSITIONAL
        kids = []
        for prem in app.premisses:
            self.budget.spend()
            if loopcheck and any(prem <= old for old in h):
                return None
            kid = self._node(h + (prem,))
            if kid is None:
                return None
            kids.append(kid)
        return tuple(kids)


def proof_tree(
    s: Union[Sequent, SetSequent],
    budget: Union[int, Budget] = DEFAULT_BUDGET,
    *,
    atomic_init: bool = False,
) -> Optional[ProofNode]:
    goal = s if isinstance(s, SetSequent) else to_set_sequent(s)
    searcher = _Search(Budget.ensure(budget), atomic_init)
    return searcher.run(goal)


def decide(
    s: Union[Sequent, SetSequent],
    budget: Union[int, Budget] = DEFAULT_BUDGET,
    *,
    atomic_init: bool = False,
) -> bool:
    """Derivability verdict alone."""
    return proof_tree(s, budget, atomic_init=atomic_init) is not None


def assemble_derivation(node: ProofNode, target: Sequent) -> Derivation:
    """Turn an accepted search tree into a kernel derivation of target.

    Requires the support of target to be node.start.  Saturation moves are
    replayed as one-premiss inferences on the multiset sequent, then the
    node's closing rule or branching application is emitted with the exact
    premisses the kernel schema computes at that multiset conclusion.
    """
    chain: list[tuple[Sequent, RuleId, tuple[Formula, ...]]] = []
    cur = target
    for step in node.steps:
        chain.append((cur, step.rule, step.principal))
        cur = premisses_for(step.rule, step.principal, cur)[0]
    if node.closure is not None:
        rule, principal = node.closure
        d = Derivation(cur, rule, principal)
    else:
        app = node.application
        assert app is not None
        prems = premisses_for(app.rule, app.principal, cur)
        kids = tuple(
            assemble_derivation(child, prem)
            for child, prem in zip(node.children, prems)
        )
        d = Derivation(cur, app.rule, app.principal, kids)
    for conc, rule, principal in reversed(chain):
        d = Derivation(conc, rule, principal, (d,))
    return d


@dataclass(frozen=True)
class SearchResult:
    sequent: Sequent
    accepted: bool
    derivation: Optional[Derivation]
    steps_used: int


def prove(
    s: Sequent,
    budget: Union[int, Budget] = DEFAULT_BUDGET,
    *,
    atomic_init: bool = False,
) -> SearchResult:
    """Search for s and, on acceptance, assemble the checkable derivation."""
    b = Budget.ensure(budget)
    node = proof_tree(s, b, atomic_init=atomic_init)
    if node is None:
        return SearchResult(s, False, None, b.used)
    return SearchResult(s, True, assemble_derivation(node, s), b.used)
