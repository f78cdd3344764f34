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
verdicts come from root calls or from the memo below, so they are exact; it
refines an underivable world sequent along the first two-premiss
application alone, the one the search commits to, and raises when no
premiss of it is underivable, which the rule's own soundness rules out.

Saturation by an ordered agenda.  saturate makes, at each step, the first
productive one-premiss move in the fixed order: antecedent before
succedent, each side by sort_key.  The productivity test of every move
(calculus.ONE_PREMISS_MOVES) only asks whether some formula it would add is
absent from its side: NegL g not in succ; AndL l or r not in ante; T g not
in ante; NegR g not in ante; OrR l or r not in succ; ImpR l not in ante or
r not in succ.  Saturation only adds formulas, so the tests are
antimonotone: a move unproductive at a sequent is unproductive at every
superset, and a principal whose move was made is unproductive from then
on, everything it adds being present.  saturate therefore keeps an agenda,
one heap per side ordered by sort_key with the antecedent heap drained
first, holding each formula that has a one-premiss rule on its side from
the moment it appears there.  Popping the least entry either finds it
unproductive, and it can be dropped for good, or finds the least productive
move: every formula that sorts before it and is still productive would
still be in the agenda.  So the moves are exactly those of a scan that
restarts from the top after every move, in the same order, while each
formula is examined once (semi-naive evaluation, in the sense of Bancilhon,
"Naive evaluation of recursively defined relations", 1986).  By the same
antimonotonicity, when s contains a saturated sequent base, no formula of
base has a productive move at s, and the agenda may be seeded with the
formulas of s outside base.  The static premisses of a branching
application contain the saturated sequent they come from, and the builder's
refinements contain the world sequent they refine, so both saturate from
there.

The memo of exact verdicts.  The searches made for one certificate (the
top-level search and every oracle search of the countermodel built after
it) share a dict from set sequents to verdicts, in the manner of global
caching (Gore & Nguyen, "EXPTIME tableaux with global caching for
description logics").  The history makes a call's failure depend on more
than its goal, so only failures known to be exact are recorded.  An
accepted node records its start and its saturation as derivable: its tree
is a derivation, whatever the history.  A failed node records its start as
underivable by one rule, a low-water mark in the manner of the lowlink of
Tarjan's strongly connected components.  Each loop-check refusal notes its
witness, the deepest history index i with prem <= h[i].  A node's mark is
the least witness of the refusals made inside its subtree, infinite when
there are none.  A failed node at history index d is recorded when its mark
is at least d.

Why that failure is exact.  Cut the node's history down to its own suffix,
the node alone.  Every refusal of its subtree has its witness at index d or
deeper, so it still finds it; dropping history entries refuses nothing new;
and the memo holds exact verdicts only, so its reads do not depend on the
history.  So the cut call expands exactly as the node did, and fails too.
But it is a root call, which is well placed, so its goal is underivable.
The status propagation of sound global caching is the same idea (Gore &
Widmann, "Sound global state caching for ALC with inverse roles", 2009).

Two cases of the rule were once rules of their own.  A failure with no
refusal inside its subtree has an infinite mark.  A well-placed call,
reached from the root of its search through static premisses only, has a
history that only grows, each entry a subset of the next: a static premiss
contains the saturation it comes from.  So a refusal witnessed before index
d is witnessed at d too, and the mark of such a call is at least d.

A failure with a mark below its index is never recorded: a refusal against
an ancestor may have caused it, and such a goal can be derivable
(tests/test_certify.py holds one).  Reading the memo keeps the rule true,
as an underivable entry fails a node without a refusal.
proof_tree reads only the underivable entries: a node they cut short would
have failed anyway, the search being sound, so every tree and derivation is
the one a search without the memo builds, and only steps are saved.  decide
also takes derivable entries as settled; that only turns into acceptance
the failure of a derivable sequent, so its root verdict stays exact.  A memo
lives for one certify or build call (or one search when none is given) and
one atomic_init setting; nothing is cached across calls.

Accepted goals come back as a tree of ProofNode records, which
assemble_derivation turns into an exact multiset derivation for the kernel.
The translation keeps one invariant: the multiset conclusion built for a
node always has the node's set sequent as its support, so the kernel-level
premisses of each rule line up with the set-level premisses the search used
and no weakening or contraction is ever inserted.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from typing import Optional, Union

from .calculus import (
    ONE_PREMISS_MOVES,
    TRANSITIONAL,
    RuleApplication,
    RuleId,
    iter_two_premiss_static_applications,
    transitional_applications,
)
from .formula import (
    Atom,
    BOT,
    Formula,
    Sequent,
    SetSequent,
    sort_key,
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


def saturate(
    s: SetSequent, base: Optional[SetSequent] = None
) -> tuple[tuple[SatStep, ...], SetSequent]:
    """Close s under the one-premiss static rules, recording the moves.

    Each move is the first productive one-premiss move in the fixed order,
    antecedent before succedent and each side in sort_key order, taken from
    an ordered agenda (see "Saturation by an ordered agenda" above): every
    formula with a one-premiss rule on its side enters the agenda once, when
    it first appears there, and leaves it for good when it is popped, either
    unproductive or spent by its own move.  The agenda is ordered by side,
    then sort_key: one heap of (sort_key, formula) entries per side, the
    antecedent's drained first.  base, when given, must be a saturated
    sequent contained in s; then only the formulas of s outside base enter
    the agenda.  Each formula of the finite subformula universe enters each
    side's heap at most once, so saturation ends.
    """
    ante, succ = s.ante, s.succ
    moves_ante, moves_succ = ONE_PREMISS_MOVES
    fresh_ante, fresh_succ = (
        (ante, succ) if base is None else (ante - base.ante, succ - base.succ)
    )
    at_ante = [(sort_key(f), f) for f in fresh_ante if type(f) in moves_ante]
    at_succ = [(sort_key(f), f) for f in fresh_succ if type(f) in moves_succ]
    heapify(at_ante)
    heapify(at_succ)
    steps: list[SatStep] = []
    while at_ante or at_succ:
        if at_ante:
            f = heappop(at_ante)[1]
            move = moves_ante[type(f)](f, ante, succ)
        else:
            f = heappop(at_succ)[1]
            move = moves_succ[type(f)](f, ante, succ)
        if move is None:
            continue  # unproductive here, so at every later, larger sequent
        rule, add_ante, add_succ = move
        new = [g for g in add_ante if g not in ante]
        if new:
            ante = ante.union(new)
            for g in new:
                if type(g) in moves_ante:
                    heappush(at_ante, (sort_key(g), g))
        new = [g for g in add_succ if g not in succ]
        if new:
            succ = succ.union(new)
            for g in new:
                if type(g) in moves_succ:
                    heappush(at_succ, (sort_key(g), g))
        s = SetSequent(ante, succ)
        steps.append(SatStep(rule, (f,), s))
    return tuple(steps), s


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
    """One search over a memo of exact verdicts shared with related searches.

    With trust_derivable off, as for proof_tree, only "underivable" entries
    cut the search short, so the tree it returns is the one a search without
    the memo would build.  With it on, as for decide, a "derivable" entry
    accepts its node outright, standing in for a tree that is never built.
    """

    def __init__(
        self,
        budget: Budget,
        atomic_init: bool,
        memo: Optional[dict[SetSequent, bool]],
        trust_derivable: bool,
    ):
        self.budget = budget
        self.atomic_init = atomic_init
        self.memo = {} if memo is None else memo
        self.trust_derivable = trust_derivable
        # least history index a loop-check refusal in the current subtree
        # pointed at; see "The memo of exact verdicts" above
        self.mark = _NO_REFUSAL

    def run(self, goal: SetSequent) -> Optional[ProofNode]:
        return self._node((goal,), None)

    def _node(
        self, history: tuple[SetSequent, ...], base: Optional[SetSequent]
    ) -> Optional[ProofNode]:
        """Search the last sequent of history; base is a saturated sequent
        it contains, if one is known (see saturate)."""
        start = history[-1]
        known = self.memo.get(start)
        if known is False:
            return None
        if known and self.trust_derivable:
            return _KNOWN_DERIVABLE
        outer, self.mark = self.mark, _NO_REFUSAL
        node = self._expand(history, base)
        mark, self.mark = self.mark, min(outer, self.mark)
        if node is not None:
            self.memo[start] = self.memo[node.saturated] = True
        elif mark >= len(history) - 1:
            # exact only then; see "The memo of exact verdicts" above
            self.memo[start] = False
        return node

    def _expand(
        self, history: tuple[SetSequent, ...], base: Optional[SetSequent]
    ) -> Optional[ProofNode]:
        start = history[-1]
        steps, sat = saturate(start, base)
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
        Only transitional premisses are loop checked; static ones contain
        the saturated h[-1] and start their saturation from it."""
        loopcheck = app.rule in TRANSITIONAL
        base = None if loopcheck else h[-1]
        kids = []
        for prem in app.premisses:
            self.budget.spend()
            if loopcheck:
                witness = _deepest_container(h, prem)
                if witness is not None:
                    self.mark = min(self.mark, witness)
                    return None
            kid = self._node(h + (prem,), base)
            if kid is None:
                return None
            kids.append(kid)
        return tuple(kids)


def _deepest_container(h: tuple[SetSequent, ...], prem: SetSequent) -> Optional[int]:
    """The greatest i with prem <= h[i], or None when the loop check lets
    prem through."""
    for i in range(len(h) - 1, -1, -1):
        if prem <= h[i]:
            return i
    return None


_NO_REFUSAL = float("inf")
_EMPTY = SetSequent(frozenset(), frozenset())
# Stands in, inside decide, for the tree of a goal the memo knows derivable.
_KNOWN_DERIVABLE = ProofNode(_EMPTY, (), _EMPTY, None, None, ())


def proof_tree(
    s: Union[Sequent, SetSequent],
    budget: Union[int, Budget] = DEFAULT_BUDGET,
    *,
    atomic_init: bool = False,
    memo: Optional[dict[SetSequent, bool]] = None,
) -> Optional[ProofNode]:
    """The accepted search tree of s, or None when s is underivable.

    memo holds exact verdicts shared with the other searches of one
    certificate; the search reads its "underivable" entries and records
    what it settles.  Without one, the search keeps a memo of its own."""
    goal = s if isinstance(s, SetSequent) else to_set_sequent(s)
    return _Search(Budget.ensure(budget), atomic_init, memo, trust_derivable=False).run(goal)


def decide(
    s: Union[Sequent, SetSequent],
    budget: Union[int, Budget] = DEFAULT_BUDGET,
    *,
    atomic_init: bool = False,
    memo: Optional[dict[SetSequent, bool]] = None,
) -> bool:
    """Derivability verdict alone.  Reads and fills memo as proof_tree does,
    and also takes its "derivable" entries as settled."""
    goal = s if isinstance(s, SetSequent) else to_set_sequent(s)
    searcher = _Search(Budget.ensure(budget), atomic_init, memo, trust_derivable=True)
    return searcher.run(goal) is not None


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
    memo: Optional[dict[SetSequent, bool]] = None,
) -> SearchResult:
    """Search for s and, on acceptance, assemble the checkable derivation.
    memo is as for proof_tree."""
    b = Budget.ensure(budget)
    node = proof_tree(s, b, atomic_init=atomic_init, memo=memo)
    if node is None:
        return SearchResult(s, False, None, b.used)
    return SearchResult(s, True, assemble_derivation(node, s), b.used)
