"""Backward proof search over set sequents.

The search keeps one stack, the saturated sequents of its open calls, the
innermost last.  A call first saturates its start under the one-premiss
static rules and pushes the result, sat, unless it is initial, when the
call closes it.  Otherwise, if a two-premiss static rule (AndR, OrL, ImpL)
applies, the search commits to the first such application: the call is
accepted when both of its premisses are, or when one is by a proof that
does not read what that premiss added (the use-check, below), and no other
rule is tried.  Only a sat that no static rule changes is attacked with the
transitional rules, each application in turn.  Transitional premisses are
loop checked: a premiss is refused when it is componentwise contained in a
sequent on the stack, sat included, and the check's witness is the deepest
such stack index.  Static premisses need no check: each strictly contains
the sat it comes from, and by induction no sat on the stack is contained in
a sequent below it, so the check would never refuse one.  The loop check,
and its use beside invertible rules applied without backtracking, follow
Heuerding, Seyfried & Zimmermann (1996), on loop checks for backward proof
search in modal logics.

One failure rule.  A failed call has shown its start underivable on an
assumption: that the stack sequents its subtree's refusals were witnessed
by, and the provisional failures its subtree reused, are underivable too.
Its low is the least stack depth that assumption reaches, infinite when it
reaches none: the least witness and reused depth beneath it, each call
folding its own low into its caller's.  A failed call at depth d whose low
is at least d is exact: its start and every provisional failure made
beneath it go into the memo as underivable.  Otherwise the failure is
provisional, start -> low in one dict, pending; while it is there, reaching
that start again fails at once and folds its low into the caller's.  When a
call pops, the provisional failures made beneath it are dropped if it
succeeds, promoted to the memo if it fails exactly, and lowered to its own
low if it fails provisionally.  This is the status propagation of sound
global caching (Gore & Widmann, "Sound global state caching for ALC with
inverse roles", 2009), over the loop check's containment.

Why the rule is exact.  Derivability is the least fixpoint of the rules
over set sequents.  Write ht(S) for the least height of a derivation of S,
infinite when S is underivable, and S < T when ht(S) < ht(T), or the two
are equal and S has more formulas than T: a well-founded order over the
finite universe.  Weakening is height-preserving admissible, so S <= T
componentwise gives ht(T) <= ht(S); saturation only adds formulas, so a
call's sat is derivable exactly when its start is, and ht(sat) <=
ht(start).  The argument has four steps.

  * The committed AND is sound by invertibility.  A static premiss P
    strictly contains the sat it comes from, so if sat is derivable, P is
    too, with P < sat.  So a branching call fails only where its sat is
    underivable or a derivable premiss below it failed; the use-check only
    accepts.
  * The transitional OR is complete, by height, with containment refusals.
    If sat is derivable and no static rule changes it, a least-height
    derivation cannot end in a static rule, each of whose applications has
    a premiss equal to sat, nor in a zero-premiss rule, sat not being
    initial.  It ends in a transitional application, which the search
    tries, whose premisses P have P < sat.  If such a P is refused against
    a stack sequent T, then ht(T) <= ht(P) < ht(sat): T is derivable, with
    T < sat.
  * Reuse under the same stack assumption is sound.  By induction over the
    calls in the order they end, with every memo entry exact: (a) if a
    failed call's start is derivable, a derivable T < sat lies on the stack
    at its low or deeper and below the call's own frame; (b) if a
    provisional failure F is derivable, a derivable T < F lies on the stack
    at its low or deeper, among F's open ancestors.  (a) follows from the
    two steps above: following derivable failed premisses down the subtree
    ends at a refusal against a stack sequent T, or at a reused F, whose
    (b) gives T; and T < sat rules out the call's own frame.  (b) holds
    when F is made, by (a), and stays true while those ancestors are open,
    so F may be reused under them.  When one of them fails provisionally
    and pops, (a) for it gives a derivable sequent lower still, at its low
    or deeper, so lowering F to that low keeps (b).
  * Promotion is sound.  A call at depth d whose low is at least d computed
    its failure with its own frame assumed failed, and every assumption
    made beneath it lies in its subtree: the call and the provisional
    failures beneath it form a post-fixpoint of failure, each failing if
    the others do.  Once it has popped, no stack depth is d or more, so (a)
    and (b) find no T, and its start and all it promotes are underivable.

The root call, at depth 0, always fails exactly.  So every memo entry is
exact and the root verdict is the derivability of the goal, which is all
the countermodel builder's oracle reads.

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
it) share a Memo, one dict from the masks of set sequents over one
universe to settled nodes, in the manner of global caching (Gore &
Nguyen, "EXPTIME tableaux with global caching for description logics").
An entry is the proof of a derivable sequent, a ProofNode, or False for an
underivable one: a derivable entry is its proof.  An accepted call records
its start with the accepted node, and its sat with the proof above its
saturation moves.  When that proof is a branching premiss's, taken by the
use-check, its uses lie within sat, so it replays at sat as it stands (see
"Relevance and the use-check" below).  A failed call records its start as
underivable when the failure rule finds it exact, and the provisional
failures it promotes with it.  A failure left provisional stays in its
search's pending dict, and may be derivable: tests/test_certify.py holds
one, a premiss that fails only because its own Four premiss is refused
against the goal, which then succeeds.

A call reads the memo before it searches.  An underivable entry fails it
at once: the search would have failed it anyway, never accepting an
underivable sequent.  A derivable entry accepts it with its proof, so
every accepted node still has a tree and known uses.  A proof
assumes no failure, so no low changes and the argument for the failure
rule stands: reuse only accepts, as the use-check does.  Either way only
steps are saved and the root verdict is unchanged, though a start that
the current stack would have failed provisionally is now accepted.  The
countermodel builder's oracle (countermodel._Builder.underivable) reads
the entry of the sequent it asks about before it searches.  A memo
lives for one certify or build call (or one search when none is given);
nothing is cached across calls, and the top-level search of a
certificate starts from an empty one.

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
    otherwise be searched further, and early closure and a recorded proof
    only accept sooner; none of them fails a call.  So the argument for
    the failure rule above holds as it stands, and the root verdict is
    exact.

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

from itertools import islice
from math import inf
from typing import NamedTuple, Optional, Union

from .calculus import BOTTOM_L, INIT, RuleApplication, RuleId, Universe
# sorted_formulas is not called here, but stays bound: perfbench/tracing.py
# wraps search.sorted_formulas
from .formula import Sequent, sorted_formulas  # noqa: F401
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
    its universe, that the searches of one certificate share: the proof of
    a derivable sequent, False for an underivable one (see "The memo of
    exact verdicts" above)."""

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
        return (BOTTOM_L, ())
    shared = ante & succ
    if shared:
        return (INIT, ((shared & -shared).bit_length() - 1,))
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
# sit in the succedent.  Keyed by the rule's value, read as rule._value_: a
# str key hashes in C, a RuleId in Python.
_LEFT_PRINCIPALS = {
    "NegL": 1,
    "AndL": 1,
    "T": 1,
    "NegR": 0,
    "OrR": 0,
    "ImpR": 0,
    "AndR": 0,
    "OrL": 1,
    "ImpL": 1,
    "D1": 1,
    "D2": 2,
    "Mon": 1,
    "Four": 0,
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
        if _LEFT_PRINCIPALS[rule._value_]:
            ante |= 1 << principal
        else:
            succ |= 1 << principal
    kept.reverse()
    return tuple(kept), (ante, succ)


def _rule_uses(
    u: Universe, app: RuleApplication, transitional: bool, sat: Masks, kids: tuple[ProofNode, ...]
) -> Masks:
    """What an application at sat uses, given its premisses' proofs: its
    principals, and what those proofs use of sat; of a transitional
    premiss, only the boxed antecedent formulas are sat's."""
    ante = succ = 0
    for kid in kids:
        ante |= kid.uses[0]
        succ |= kid.uses[1]
    if transitional:
        ante &= u.boxes & sat[0]
        succ = 0
    else:
        ante &= sat[0]
        succ &= sat[1]
    n = _LEFT_PRINCIPALS[app.rule._value_]
    for k, i in enumerate(app.principal):
        if k < n:
            ante |= 1 << i
        else:
            succ |= 1 << i
    return ante, succ


class _Search:
    """One search over a memo of exact verdicts shared with related searches,
    failing by one rule (see "One failure rule" above)."""

    def __init__(self, budget: Budget, memo: Memo):
        self.budget = budget
        self.memo = memo
        self.u = memo.universe
        self.stack: list[Masks] = []  # the saturated sequents of the open calls
        self.low = inf  # least stack depth assumed failed beneath the current call
        # provisional failures, start -> low, in the order they were made:
        # those past len(pending) at a call's entry were made beneath it
        self.pending: dict[Masks, int] = {}

    def run(self, goal: Masks) -> Optional[ProofNode]:
        return self._node(goal, None)

    def _node(self, start: Masks, base: Optional[Masks]) -> Optional[ProofNode]:
        """Search start; base is a saturated sequent it contains, if one is
        known (see saturate)."""
        memo, pending = self.memo, self.pending
        known = memo.get(start)
        if known is not None:
            return known or None
        if pending and start in pending:
            self.low = min(self.low, pending[start])
            return None
        outer, self.low = self.low, inf
        made = len(pending)
        node = self._expand(start, base)
        low, self.low = self.low, min(outer, self.low)
        if node is None and low < len(self.stack):
            for s in islice(pending, made, None):
                pending[s] = low
            pending[start] = low
            return None
        memo[start] = node or False
        while len(pending) > made:  # dropped under a success, else exact
            s, _ = pending.popitem()
            if node is None:
                memo[s] = False
        return node

    def _expand(self, start: Masks, base: Optional[Masks]) -> Optional[ProofNode]:
        """Saturate start, then close it, or settle it by its committed
        branching application, or else try its transitional applications in
        turn, each premiss loop checked against the stack."""
        u, budget, stack = self.u, self.budget, self.stack
        steps, sat = saturate(u, start, base)
        budget.spend(1 + len(steps))
        cl = closure_of(u, sat)
        if cl is not None:
            rule, principal = cl
            if rule is BOTTOM_L:
                used = (u.bottom, 0)
            else:
                bit = 1 << principal[0]
                used = (bit, bit)
            return self._accept(sat, steps, ProofNode((), cl, None, (), used))
        branch = u.first_branching(*sat)
        stack.append(sat)
        above = None
        for app in u.transitional(*sat) if branch is None else (branch,):
            kids = []
            for prem in app.premisses:
                budget.spend()
                if branch is None:
                    witness = _deepest_container(stack, prem)
                    if witness is not None:
                        self.low = min(self.low, witness)
                        break
                kid = self._node(prem, None if branch is None else sat)
                if kid is None:
                    break
                uses_ante, uses_succ = kid.uses
                if branch is not None and not (uses_ante & ~sat[0] or uses_succ & ~sat[1]):
                    above = kid  # the use-check: kid proves sat as it is
                    break
                kids.append(kid)
            else:
                kids = tuple(kids)
                above = ProofNode((), None, app, kids, _rule_uses(u, app, branch is None, sat, kids))
            if above is not None:
                break
        stack.pop()
        return None if above is None else self._accept(sat, steps, above)

    def _accept(self, sat: Masks, steps: tuple[SatStep, ...], above: ProofNode) -> ProofNode:
        """The accepted node that saturates by steps to sat and then goes on
        as the proof above, which uses above.uses of sat."""
        self.memo[sat] = above
        kept, uses = _relevant(steps, above.uses)
        return ProofNode(kept + above.steps, above.closure, above.application, above.children, uses)


def _deepest_container(stack: list[Masks], prem: Masks) -> Optional[int]:
    """The greatest i with prem <= stack[i] componentwise, or None when the
    loop check lets prem through."""
    ante, succ = prem
    for i in range(len(stack) - 1, -1, -1):
        h_ante, h_succ = stack[i]
        if not (ante & ~h_ante or succ & ~h_succ):
            return i
    return None


def proof_tree(
    s: Union[Sequent, Masks],
    budget: Union[int, Budget] = DEFAULT_BUDGET,
    *,
    memo: Optional[Memo] = None,
) -> Optional[ProofNode]:
    """The accepted search tree of s, or None when s is underivable.

    s is a sequent, or the masks of one over the universe of memo.  memo
    holds exact verdicts shared with the other searches of one
    certificate; the search settles a node from its entry when it holds
    one, and records what it settles.  Without one, the
    search keeps a memo of its own over the universe of s."""
    if memo is None:
        memo = Memo(Universe(s))
    goal = s if type(s) is tuple else memo.universe.encode(s)
    return _Search(Budget.ensure(budget), memo).run(goal)


def decide(
    s: Union[Sequent, Masks],
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


class SearchResult(NamedTuple):
    sequent: Sequent
    accepted: bool
    derivation: Optional[Derivation]
    steps_used: int


def prove(
    s: Sequent,
    budget: Union[int, Budget] = DEFAULT_BUDGET,
    *,
    memo: Optional[Memo] = None,
    hypotheses: int = 0,
) -> SearchResult:
    """Search for s and, on acceptance, assemble the checkable derivation.
    memo is as for proof_tree.

    The first hypotheses antecedent formulas of s are boxed assumptions, as
    consistency.reduction_sequent puts them.  The derivation keeps one copy
    of each that the proof uses and that the rest of the antecedent does
    not hold, in order, and drops the others: it concludes s less its
    unused hypotheses, which consistency.discharge then cuts away.  The
    result's sequent is s itself."""
    b = Budget.ensure(budget)
    if memo is None:
        memo = Memo(Universe(s))
    node = proof_tree(s, b, memo=memo)
    if node is None:
        return SearchResult(s, False, None, b.used)
    u = memo.universe
    target = _used_hypotheses(s, hypotheses, node.uses[0], u) if hypotheses else s
    return SearchResult(s, True, assemble_derivation(node, target, u), b.used)


def _used_hypotheses(s: Sequent, hypotheses: int, used: int, u: Universe) -> Sequent:
    """s with only the first copy of each of its first hypotheses
    antecedent formulas whose bit is in used and that the rest of the
    antecedent does not hold.  It still holds every used formula, so the
    proof replays there (see "Relevance and the use-check" above)."""
    rank = u.rank
    held = 0
    for f in s.ante[hypotheses:]:
        held |= 1 << rank[f]
    kept = []
    for f in s.ante[:hypotheses]:
        bit = 1 << rank[f]
        if used & bit and not held & bit:
            kept.append(f)
            held |= bit
    return Sequent((*kept, *s.ante[hypotheses:]), s.succ)
