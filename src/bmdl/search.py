"""Backward proof search over set sequents.

The search works on a history, a nonempty list of set sequents whose last
entry is the current goal.  A goal is first saturated under the one-premiss
static rules (replacing it in the history), then closed if it is initial.
Otherwise, if a two-premiss static rule (AndR, OrL, ImpL) applies, the
search commits to the first such application: the goal is accepted when
both of its premisses are, or when one is by a proof that does not read
what that premiss added (the use-check, below), and no other rule is
tried.  Only a goal that no static rule changes is attacked with the
transitional rules, each application in turn.  Transitional premisses are
loop checked: a premiss is refused when it is componentwise contained in
some sequent of the history, the current one included.  Static premisses
need no check because the application filter keeps only strictly growing
premisses.

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
(calculus.Universe.moves) only asks whether some formula it would add is
absent from its side: NegL g not in succ; AndL l or r not in ante; T g not
in ante; NegR g not in ante; OrR l or r not in succ; ImpR l not in ante or
r not in succ.  Saturation only adds formulas, so the tests are
antimonotone: a move unproductive at a sequent is unproductive at every
superset, and a principal whose move was made is unproductive from then
on, everything it adds being present.  saturate therefore keeps an agenda,
one mask per side whose lowest bit is the least formula by sort_key, the
antecedent's drained first, holding each formula that has a one-premiss
rule on its side from the moment it appears there.  Taking the lowest bit
either finds its move unproductive, and it can be dropped for good, or
finds the least productive move: every formula that sorts before it and is
still productive would still be in the agenda.  So the moves are exactly
those of a scan that restarts from the top after every move, in the same
order, while each formula is examined once (semi-naive evaluation, in the sense of Bancilhon,
"Naive evaluation of recursively defined relations", 1986).  By the same
antimonotonicity, when s contains a saturated sequent base, no formula of
base has a productive move at s, and the agenda may be seeded with the
formulas of s outside base.  The static premisses of a branching
application contain the saturated sequent they come from, and the builder's
refinements contain the world sequent they refine, so both saturate from
there.  Saturation stops at the first move that closes the sequent (Init
or BottomL), and a start that is already closed makes no move: what a
closed sequent derives needs no more formulas.  The builder saturates
underivable sequents only, which never close, so its worlds are saturated
in full.

Bitset sequents over the goal's universe.  Every search and world sequent
is a pair of ints over the goal's calculus.Universe, its subformula
closure ranked in sort_key order: bit i of a side stands for the formula
of rank i.  The closure holds everything these modules ever put in a
sequent, by the subformula property of the cut-free calculus.  A static
premiss adds arguments of its principal.  A transitional premiss keeps
boxed antecedent formulas and adds arguments of its principal
obligations or box.  A placed condition is the argument of an
obligation.  Saturation, closure and the enumerators add nothing else.
So every premiss, every world sequent and every memo key is a subformula
set of the goal.  Only a sequent handed in from outside, the goal or one a
caller pairs with another goal's memo, can hold a formula outside the
universe, and encoding it raises ValueError.

Rank order is sort_key order, and the universe is ranked by one sort of
the closure, so a universe depends on the closure alone, never on the
order in which the walk or a set met its formulas.  Each enumeration was
defined by a sort_key order over a filtered side: the agenda by side then
sort_key, Init's principal as the least shared formula, AndR, OrL, ImpL,
D1, D2, Mon and Four each by their principals in sort_key order, and the
conditions to place in sort_key order.  Masking a side by a class and
taking its bits from the lowest visits exactly those formulas in exactly
that order.  So each move, application and premiss comes in the order it
did over formula sets, the budget spends the same steps, the memo records
the same sequents, and every derivation and countermodel is the same.
Formulas are read back only where a certificate is made: assembly maps
the ranks of principals to formulas, and countermodel.build decodes each
world's label once, into the universe's canonical formulas (see
Universe.canonical).

The memo of exact verdicts.  The searches made for one certificate (the
top-level search and every oracle search of the countermodel built after
it) share a Memo, a dict from the masks of set sequents over one universe
to verdicts, in the manner of global
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

One rule governs reading the memo: every search reads only its underivable
entries.  A node they cut short would have failed anyway, the search being
sound, so every tree and derivation is the one a search without the memo
builds, and only steps are saved.  The derivable entries are read in one
place alone, countermodel._Builder.underivable, and only for the sequent
it asks about, before it searches; a search never settles a node from them,
so every accepted node has a tree and known uses.  A memo lives for one
certify or build call (or one search when none is given); nothing is cached
across calls.

Relevance and the use-check.  Every accepted node carries its uses: the
(side, formula) pairs of its start sequent that its proof reads, as a pair
of masks, sided because a formula read on the left is not the one a move
added on the right.  They are computed bottom-up when a node is accepted,
so failed nodes pay nothing.  A closing rule uses its principal on each
side it reads.  A branching rule uses its principal, and each premiss
proof's uses that lie in the saturated sequent; the formula the premiss
added is its own.  A transitional rule uses its principals, and the boxed
antecedent formulas its premiss proofs use; the rest of a transitional
premiss is its active formulas, which the conclusion need not hold.  The
saturation moves are then walked back from the saturated sequent: a move
is kept when it added a used formula, and then its additions leave the use
set and its principal joins it; every other move is dropped.  What is left
is a subset of the start.

Kept moves never read an unused formula: each kept move's principal is in
the use set where the move is made, so it is one of the start's used
formulas or was added by an earlier kept move.  So a proof replays at any
sequent that holds its uses, whatever else the set sequent the search
worked on held.  Hence:

  * Soundness.  At a branching node whose premiss proof does not use the
    formula that premiss added, that proof reads only formulas of the
    saturated conclusion, so it replays at the conclusion as it is; the
    node is accepted on that proof alone, and when it is the first
    premiss's, the second premiss is never searched.  This is the
    use-check of tableau provers (Horrocks & Patel-Schneider, "Optimizing
    description logic subsumption", 1999).
  * Completeness.  The use-check only turns into acceptance what would
    otherwise be searched further; it never fails a node.  In the argument
    above, a well-placed branching node on a derivable goal has a first
    premiss that succeeds; either the use-check accepts the node, or the
    second premiss is searched, is well placed and succeeds.  Early closure
    only accepts sooner.  So a well-placed call on a derivable goal still
    succeeds, and the root verdict is exact.
  * The low-water mark.  Its argument needs the cut-down call to expand
    exactly as the node did, and it still does: expansion is deterministic
    given the refusals it meets and the memo, which holds exact verdicts
    only.  The cut call meets the same refusals, so it accepts the same
    subtrees with the same use sets and takes the same use-checks.

Accepted goals come back as a tree of ProofNode records, which
assemble_derivation turns into an exact multiset derivation for the kernel.
The translation keeps one invariant: the multiset conclusion built for a
node contains, as a set, the formulas its proof uses and is contained in
the node's start; the root's is the goal itself.  The kept moves and the
closing or transitional rule need only the used formulas to be present, so
the kernel-level premisses of each rule carry every formula the proof
above them reads, and no weakening or contraction is ever inserted.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional, Union

from .calculus import TRANSITIONAL, RuleApplication, RuleId, Universe
# sorted_formulas is not called here, but stays bound: perfbench/tracing.py
# wraps search.sorted_formulas
from .formula import Sequent, SetSequent, sorted_formulas  # noqa: F401
from .kernel import Derivation, premisses_for

DEFAULT_BUDGET = 1_000_000

# A set sequent over a universe: its (antecedent, succedent) masks.
Masks = tuple[int, int]


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


class Memo(dict):
    """Exact derivability verdicts, keyed by the masks of set sequents over
    its universe, that the searches of one certificate share (see "The memo
    of exact verdicts" above)."""

    __slots__ = ("universe",)

    def __init__(self, universe: Universe):
        super().__init__()
        self.universe = universe


class SatStep(NamedTuple):
    """One saturation move: the rule, the rank of its principal, and the
    masks of the formulas it added to the antecedent and to the succedent,
    those it would add that were not there yet."""

    rule: RuleId
    principal: int
    new_ante: int
    new_succ: int


def saturate(
    u: Universe, s: Masks, base: Optional[Masks] = None
) -> tuple[tuple[SatStep, ...], Masks]:
    """Close s under the one-premiss static rules, recording the moves,
    until the sequent closes.

    Each move is the first productive one-premiss move in the fixed order,
    antecedent before succedent and each side in rank order, taken from
    an ordered agenda (see "Saturation by an ordered agenda" above): every
    formula with a one-premiss rule on its side enters the agenda once, when
    it first appears there, and leaves it for good when it is taken, either
    unproductive or spent by its own move.  The agenda is one mask per
    side, whose lowest bit is taken next, the antecedent's drained first.
    Saturation stops after the first move that closes the sequent, by
    BottomL or Init, and makes none when s is closed.  base, when given,
    must be a saturated sequent contained in s that is not closed; then
    only the formulas of s outside base enter the agenda and are checked
    for closing it.  Each formula of the universe enters each side's agenda
    at most once, so saturation ends.
    """
    ante, succ = s
    if base is None:
        fresh_ante, fresh_succ = ante, succ
        closed = ante & (u.bottom | succ)
    else:
        fresh_ante, fresh_succ = ante & ~base[0], succ & ~base[1]
        closed = fresh_ante & (u.bottom | succ) or fresh_succ & ante
    if closed:
        return (), s
    moves_ante, moves_succ = u.moves
    movers_ante, movers_succ = u.movers
    bottom = u.bottom
    at_ante = fresh_ante & movers_ante
    at_succ = fresh_succ & movers_succ
    steps: list[SatStep] = []
    while at_ante or at_succ:
        if at_ante:
            low = at_ante & -at_ante
            at_ante ^= low
            i = low.bit_length() - 1
            rule, add_ante, add_succ = moves_ante[i]
        else:
            low = at_succ & -at_succ
            at_succ ^= low
            i = low.bit_length() - 1
            rule, add_ante, add_succ = moves_succ[i]
        new_ante = add_ante & ~ante
        new_succ = add_succ & ~succ
        if not (new_ante or new_succ):
            continue  # unproductive here, so at every later, larger sequent
        ante |= new_ante
        succ |= new_succ
        at_ante |= new_ante & movers_ante
        at_succ |= new_succ & movers_succ
        steps.append(SatStep(rule, i, new_ante, new_succ))
        if new_ante & (bottom | succ) or new_succ & ante:
            break
    if not steps:
        return (), s
    return tuple(steps), (ante, succ)


def closure_of(u: Universe, s: Masks) -> Optional[tuple[RuleId, tuple[int, ...]]]:
    """The zero-premiss rule closing s, if any, with the ranks of its
    principal: Init on the least formula on both sides."""
    ante, succ = s
    if ante & u.bottom:
        return (RuleId.BOTTOM_L, ())
    shared = ante & succ
    if shared:
        return (RuleId.INIT, ((shared & -shared).bit_length() - 1,))
    return None


class ProofNode(NamedTuple):
    """Accepted search node.  steps are the saturation moves its derivation
    replays, the used ones alone, and at most one of closure and
    application is set; uses are the masks of the formulas of the node's
    start that its proof uses (see "Relevance and the use-check" above)."""

    steps: tuple[SatStep, ...]
    closure: Optional[tuple[RuleId, tuple[int, ...]]]
    application: Optional[RuleApplication]
    children: tuple["ProofNode", ...]
    uses: Masks


# How many leading principals of each rule sit in the antecedent; the rest
# sit in the succedent.
_LEFT_PRINCIPALS = {
    RuleId.NEG_L: 1,
    RuleId.AND_L: 1,
    RuleId.T: 1,
    RuleId.NEG_R: 0,
    RuleId.OR_R: 0,
    RuleId.IMP_R: 0,
    RuleId.AND_R: 0,
    RuleId.OR_L: 1,
    RuleId.IMP_L: 1,
    RuleId.D1: 1,
    RuleId.D2: 2,
    RuleId.MON: 1,
    RuleId.FOUR: 0,
}


def _relevant(steps: tuple[SatStep, ...], used: Masks) -> tuple[tuple[SatStep, ...], Masks]:
    """The moves of steps that add a formula used after them, and what the
    start of steps must hold: used walked back through the kept moves."""
    if not steps:
        return (), used
    ante, succ = used
    kept = []
    for step in reversed(steps):
        rule, principal, new_ante, new_succ = step
        if not (ante & new_ante or succ & new_succ):
            continue
        kept.append(step)
        ante &= ~new_ante
        succ &= ~new_succ
        if _LEFT_PRINCIPALS[rule]:
            ante |= 1 << principal
        else:
            succ |= 1 << principal
    kept.reverse()
    return tuple(kept), (ante, succ)


def _rule_uses(u: Universe, app: RuleApplication, sat: Masks, kids: tuple[ProofNode, ...]) -> Masks:
    """What an application at sat uses, given its premisses' proofs: its
    principals, and what those proofs use of sat; of a transitional
    premiss, only the boxed antecedent formulas are sat's."""
    ante = succ = 0
    for kid in kids:
        ante |= kid.uses[0]
        succ |= kid.uses[1]
    if app.rule in TRANSITIONAL:
        ante &= u.boxes & sat[0]
        succ = 0
    else:
        ante &= sat[0]
        succ &= sat[1]
    n = _LEFT_PRINCIPALS[app.rule]
    for k, i in enumerate(app.principal):
        if k < n:
            ante |= 1 << i
        else:
            succ |= 1 << i
    return ante, succ


class _Search:
    """One search over a memo of exact verdicts shared with related searches.
    Only its "underivable" entries cut the search short, so the tree it
    returns is the one a search without the memo would build."""

    def __init__(self, budget: Budget, memo: Memo):
        self.budget = budget
        self.memo = memo
        self.u = memo.universe
        # least history index a loop-check refusal in the current subtree
        # pointed at; see "The memo of exact verdicts" above
        self.mark = _NO_REFUSAL

    def run(self, goal: Masks) -> Optional[ProofNode]:
        return self._node((goal,), None)

    def _node(self, history: tuple[Masks, ...], base: Optional[Masks]) -> Optional[ProofNode]:
        """Search the last sequent of history; base is a saturated sequent
        it contains, if one is known (see saturate)."""
        start = history[-1]
        if self.memo.get(start) is False:
            return None
        outer, self.mark = self.mark, _NO_REFUSAL
        node = self._expand(history, base)
        mark, self.mark = self.mark, min(outer, self.mark)
        if node is not None:
            self.memo[start] = True
        elif mark >= len(history) - 1:
            # exact only then; see "The memo of exact verdicts" above
            self.memo[start] = False
        return node

    def _expand(self, history: tuple[Masks, ...], base: Optional[Masks]) -> Optional[ProofNode]:
        u = self.u
        steps, sat = saturate(u, history[-1], base)
        self.budget.spend(1 + len(steps))
        cl = closure_of(u, sat)
        if cl is not None:
            rule, principal = cl
            if rule is RuleId.BOTTOM_L:
                used = (u.bottom, 0)
            else:
                bit = 1 << principal[0]
                used = (bit, bit)
            return self._accept(sat, steps, ProofNode((), cl, None, (), used))
        h = history[:-1] + (sat,)
        branch = u.first_branching(*sat)
        if branch is not None:
            return self._branch(h, steps, branch)
        for app in u.transitional(*sat):
            kids = self._try(h, app)
            if kids is not None:
                above = ProofNode((), None, app, kids, _rule_uses(u, app, sat, kids))
                return self._accept(sat, steps, above)
        return None

    def _branch(
        self, h: tuple[Masks, ...], steps: tuple[SatStep, ...], app: RuleApplication
    ) -> Optional[ProofNode]:
        """Settle the node at the saturated h[-1] by the first branching
        application: branching static rules are invertible.  Premisses
        contain h[-1] and start their saturation from it.  A premiss whose
        proof does not use what it added proves h[-1] itself, and the rest
        are never searched (the use-check)."""
        sat = h[-1]
        sat_ante, sat_succ = sat
        kids = []
        for prem in app.premisses:
            self.budget.spend()
            kid = self._node(h + (prem,), sat)
            if kid is None:
                return None
            uses_ante, uses_succ = kid.uses
            if not (uses_ante & ~sat_ante or uses_succ & ~sat_succ):
                return self._accept(sat, steps, kid)
            kids.append(kid)
        kids = tuple(kids)
        above = ProofNode((), None, app, kids, _rule_uses(self.u, app, sat, kids))
        return self._accept(sat, steps, above)

    def _accept(self, sat: Masks, steps: tuple[SatStep, ...], above: ProofNode) -> ProofNode:
        """The accepted node that saturates by steps to sat and then goes on
        as the proof above, which uses above.uses of sat."""
        self.memo[sat] = True
        kept, uses = _relevant(steps, above.uses)
        return ProofNode(kept + above.steps, above.closure, above.application, above.children, uses)

    def _try(self, h: tuple[Masks, ...], app: RuleApplication) -> Optional[tuple[ProofNode, ...]]:
        """Evaluate a transitional application's premisses left to right,
        each loop checked; None as soon as one premiss loops or is
        rejected, the remaining ones unexplored."""
        kids = []
        for prem in app.premisses:
            self.budget.spend()
            witness = _deepest_container(h, prem)
            if witness is not None:
                self.mark = min(self.mark, witness)
                return None
            kid = self._node(h + (prem,), None)
            if kid is None:
                return None
            kids.append(kid)
        return tuple(kids)


def _deepest_container(h: tuple[Masks, ...], prem: Masks) -> Optional[int]:
    """The greatest i with prem <= h[i] componentwise, or None when the loop
    check lets prem through."""
    ante, succ = prem
    for i in range(len(h) - 1, -1, -1):
        h_ante, h_succ = h[i]
        if not (ante & ~h_ante or succ & ~h_succ):
            return i
    return None


_NO_REFUSAL = float("inf")


def proof_tree(
    s: Union[Sequent, SetSequent, Masks],
    budget: Union[int, Budget] = DEFAULT_BUDGET,
    *,
    memo: Optional[Memo] = None,
) -> Optional[ProofNode]:
    """The accepted search tree of s, or None when s is underivable.

    s is a sequent, or the masks of one over the universe of memo.  memo
    holds exact verdicts shared with the other searches of one
    certificate; the search reads its "underivable" entries and records
    what it settles.  Without one, the search keeps a memo of its own over
    the universe of s."""
    if memo is None:
        memo = Memo(Universe(s))
    goal = s if type(s) is tuple else memo.universe.encode(s)
    return _Search(Budget.ensure(budget), memo).run(goal)


def decide(
    s: Union[Sequent, SetSequent, Masks],
    budget: Union[int, Budget] = DEFAULT_BUDGET,
    *,
    memo: Optional[Memo] = None,
) -> bool:
    """Derivability verdict alone: whether proof_tree accepts s."""
    return proof_tree(s, budget, memo=memo) is not None


def assemble_derivation(node: ProofNode, target: Sequent, u: Universe) -> Derivation:
    """Turn an accepted search tree over the universe u into a kernel
    derivation of target.

    Requires target, as a set, to contain node.uses and to lie within the
    node's start.  The used saturation moves, node.steps, are replayed as
    one-premiss inferences on the multiset sequent, then the node's closing
    rule or branching application is emitted with the exact premisses the
    kernel schema computes at that multiset conclusion.  Principals are
    read from the ranks as formulas, and nothing else is decoded.
    """
    formulas = u.formulas
    chain: list[tuple[Sequent, RuleId, tuple]] = []
    cur = target
    for step in node.steps:
        principal = (formulas[step.principal],)
        chain.append((cur, step.rule, principal))
        cur = premisses_for(step.rule, principal, cur)[0]
    if node.closure is not None:
        rule, principal = node.closure
        d = Derivation(cur, rule, tuple([formulas[i] for i in principal]))
    else:
        app = node.application
        assert app is not None
        principal = tuple([formulas[i] for i in app.principal])
        prems = premisses_for(app.rule, principal, cur)
        kids = tuple(
            assemble_derivation(child, prem, u)
            for child, prem in zip(node.children, prems)
        )
        d = Derivation(cur, app.rule, principal, kids)
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
    memo: Optional[Memo] = None,
) -> SearchResult:
    """Search for s and, on acceptance, assemble the checkable derivation.
    memo is as for proof_tree."""
    b = Budget.ensure(budget)
    if memo is None:
        memo = Memo(Universe(s))
    node = proof_tree(s, b, memo=memo)
    if node is None:
        return SearchResult(s, False, None, b.used)
    return SearchResult(s, True, assemble_derivation(node, s, memo.universe), b.used)
