"""Certified countermodel extraction for underivable sequents.

Worlds are built from underivable set sequents, each first brought into a
resolved form by three interleaved moves, every one of them checked against
a search oracle that reads and fills a memo of exact verdicts, each entry a
proof or False (certify shares it with the search that refuted the goal;
see the search module for why its entries are exact):

  * saturation under the one-premiss static rules (these are invertible,
    so underivability is preserved without an oracle call);
  * for each productive two-premiss static application, replacement of the
    sequent by its first underivable premiss, so that at the fixpoint every
    conjunction on the right, disjunction on the left and implication on
    the left has a decomposed alternative already present;
  * for the condition g of every obligation O(f/g) that can occur on the
    left of some world sequent, placement of g on the left or on the
    right, whichever keeps the sequent underivable, the left tried first.

The oracle's verdicts are exact whatever a search left provisional inside
itself: each is a memo entry or the verdict of a root call.  Refinement
follows the first two-premiss application alone, the one the search
commits to, and raises when no premiss of it is underivable, which the
rule's own soundness rules out.

The last move makes the syntactic reading of a condition agree with its
semantic truth set wherever certification reads it.  An obligation O(f/g)
on the left of w is made true by the generator built from the occurrence
sets of f and g among the successors of w, and that generator's cond set
equals the truth set of g on R[w] only because every world of R[w] carries
g on one side.  No other check reads a placement:

  * an obligation O(f'/g') on the right of w must be false there, so no
    generator of w may have its base inside the truth set of f' and its
    cond set equal to that of g' on R[w].  The generator of a left O(f/g)
    fails that by the witness of their Mon application, a world of R[w]
    that carries f on the left and f' on the right (in the base, f'
    false), or g on the left and g' on the right (in the cond set, g'
    false), or g' on the left and g on the right (outside the cond set,
    g' true).  Each case reads formulas the Mon premiss itself put there,
    never a placement of g';
  * the generators of two left obligations O(f1/g1), O(f2/g2) with one
    cond set must overlap (the frame's no-conflict condition).  The
    witness of their D2 application carries f1 and f2 on the left (a
    world in both bases), or one condition on the left and the other on
    the right (a world in one cond set only), again formulas of its own.

So conditions of right-only obligations are left unplaced.  Which
obligations can occur on the left is found by one walk over (formula,
side) pairs from the goal (left_obligation_conds): a negation and the left
argument of an implication flip the side, conjunctions, disjunctions and
boxes keep it, and an obligation's body and condition go to both sides,
since D1, D2 and Mon premisses and placement itself put them there.  Every
formula of every world sequent is reached by that walk on its own side.

Each resolved world then gets one witness per transitional application,
reached by an accessibility edge.  Premisses are taken in order, and the
witness is the earliest world, in creation order, that already contains
one of them componentwise (p <= resolved[w], the loop check's test), the
new world itself included.  Only when no world contains any premiss is
the application's first underivable premiss resolved into a new world.
Reusing a containing world W for a premiss P is sound:

  * W is resolved and underivable, as every world is;
  * W.ante includes P.ante, which includes the boxed part of the source
    world, so the edge respects every box there;
  * W holds each active formula of P on the side that resolve(P) would:
    the body on the left for D1 and D2, the body and the condition sides
    for Mon, the Four formula on the right;
  * P is underivable, by weakening, because W is;
  * sharing a world by equal resolved sequents is the special case
    W = resolve(P).  Resolution only adds formulas, so a premiss that no
    world contains never resolves to an existing world's sequent: every
    new world is a new sequent, and no lookup by sequent is needed.

Reuse costs no oracle call and no new world.  The lookup scans the worlds
in creation order and stops at the first W with P.ante & ~W.ante == 0 and
P.succ & ~W.succ == 0: two int operations per world, on the masks over the
goal's universe that the builder keeps every world sequent as (see
"Bitset sequents over the goal's universe" in the search module).  Each
label is decoded once, after the construction, for the audit and the
report: into a Sequent whose sides are duplicate-free and in rank order,
which is sort_key order, so the report prints it as it stands.  It is made
of the universe's canonical formulas, whose arguments are the formulas of
their own ranks, so the audit's truth sets, keyed by formulas, find a
repeated subformula as the same object.

finish fills the model straight from the builder's masks: world i, the
i-th world made, is bit i and is named h<i>.  Each world's edges to its
witnesses are one mask, and rt_closure closes them into its successor
mask.  An atom's truth mask is the set of worlds carrying it on the left,
and each world gets one generator per obligation on its left, whose base
and cond are the occurrence masks of the body and the condition among
the world's successors.  No view of the construction is handed on: the
frame check, the audit and the root check read the model's own masks,
and names appear only when the model is written as JSON.

build certifies the result before returning it: the frame conditions are
validated, every formula occurrence is audited against the truth
conditions (left occurrences true, right occurrences false), and the goal
must fail at the root world.  The audit and the root check share one memo
of the model's truth masks; both run in full.  A certification failure
raises CountermodelError rather than returning a bad model, so every
CounterModelResult that build returns is certified.

The report (result_to_json) carries the model, the goal, the root and the
labels: each world's resolved sequent, the claim the audit checked.  From
a report alone, claim_of_json reads back the CounterModelResult that build
made, its labels parsed into the same Sequents, so that check-model can
run all three checks again.
"""

from __future__ import annotations

from typing import Mapping, NamedTuple, Optional, Union

from .calculus import RuleApplication, Universe, ranks
from .formula import (
    And,
    Box,
    Formula,
    Imp,
    Neg,
    Obl,
    Or,
    Sequent,
    sorted_formulas,
)
from .parser import parse_sequent, print_formula, print_sequent
from .search import Budget, DEFAULT_BUDGET, Masks, Memo, SearchResult, decide, prove, saturate
from .semantics import (
    MModel,
    falsifies,
    model_from_json,
    model_to_json,
    rt_closure,
    truth_mask,
    validate_frame,
)


class CountermodelError(RuntimeError):
    """The construction could not be certified."""


class CounterModelResult(NamedTuple):
    """A countermodel and its claim: sequent fails at the world root of
    model, and each world's label in resolved holds there (left formulas
    true, right formulas false)."""

    sequent: Sequent
    model: MModel
    root: str
    resolved: Mapping[str, Sequent]


class _Builder:
    """The construction over the universe of the memo's searches: every
    world sequent is kept as its masks, and decoded only by build."""

    def __init__(self, budget: Budget, memo: Memo, conds: int):
        self.budget = budget
        self.memo = memo
        self.u = memo.universe
        self.conds = conds  # the mask of the conditions to place
        self.resolved: list[Masks] = []  # world i's sequent, in creation order
        self.edges: list[int] = []  # world i's witnesses, as a mask of worlds

    def underivable(self, s: Masks) -> bool:
        """The oracle: underivability from the memo's entry for s, a proof
        or False, searching with decide only for sequents it does not hold;
        decide records its root entry, and its search settles nodes from
        the memo's entries (see the search module)."""
        known = self.memo.get(s)
        if known is None:
            known = decide(s, self.budget, memo=self.memo)
        return not known

    def first_underivable(self, app: RuleApplication, at: Masks) -> Masks:
        """The first underivable premiss of app at the underivable sequent
        at; the rule's soundness rules out that there is none."""
        prem = next((p for p in app.premisses if self.underivable(p)), None)
        if prem is None:
            raise CountermodelError(
                f"every premiss of {app.rule.value} at "
                f"{print_sequent(self.u.decode(at))} is derivable, "
                "yet the sequent itself was not"
            )
        return prem

    def resolve(self, s: Masks) -> Masks:
        u = self.u
        cur = s
        base = None  # the last saturated sequent, contained in cur
        while True:
            _, cur = saturate(u, cur, base)
            base = cur
            app = u.first_branching(*cur)
            if app is not None:
                cur = self.first_underivable(app, cur)
                continue
            ante, succ = cur
            missing = self.conds & ~(ante | succ)
            if not missing:
                return cur
            missing &= -missing  # the least unplaced condition
            left = (ante | missing, succ)
            if self.underivable(left):
                cur = left
            else:
                right = (ante, succ | missing)
                if not self.underivable(right):
                    raise CountermodelError(
                        "condition placement failed: both polarities of a "
                        "condition formula make the world sequent derivable"
                    )
                cur = right

    def container(self, p: Masks) -> Optional[int]:
        """The earliest world whose resolved sequent contains the transitional
        premiss p componentwise, or None: a scan in creation order."""
        ante, succ = p
        for w, (w_ante, w_succ) in enumerate(self.resolved):
            if not (ante & ~w_ante or succ & ~w_succ):
                return w
        return None

    def explore(self, s: Masks) -> int:
        resolved = self.resolve(s)
        w = len(self.resolved)
        self.resolved.append(resolved)
        self.edges.append(0)
        for app in self.u.transitional(*resolved):
            witness = next(
                (v for v in map(self.container, app.premisses) if v is not None), None
            )
            if witness is None:
                witness = self.explore(self.first_underivable(app, resolved))
            self.edges[w] |= 1 << witness
        return w

    def finish(self) -> MModel:
        """The model over the worlds made, world i named h<i>: the edges
        closed by rt_closure, and every mask read off the resolved masks."""
        u = self.u
        resolved = self.resolved
        succ = rt_closure(self.edges, len(resolved))
        occurs_left: dict[int, int] = {}

        def left_of(bit: int) -> int:
            got = occurs_left.get(bit)
            if got is None:
                got = 0
                for w, (ante, _) in enumerate(resolved):
                    if ante & bit:
                        got |= 1 << w
                occurs_left[bit] = got
            return got

        gens = []
        for (ante, _), reach in zip(resolved, succ):
            gs = []
            for i in ranks(ante & u.obls):
                g = (left_of(u.first[i]) & reach, left_of(u.second[i]) & reach)
                if g not in gs:
                    gs.append(g)
            gens.append(tuple(gs))
        atoms = {}
        for i in ranks(u.atoms):
            true_at = left_of(1 << i)
            if true_at:
                atoms[u.formulas[i].name] = true_at
        return MModel(tuple(f"h{w}" for w in range(len(resolved))), tuple(succ), tuple(gens), atoms)


def left_obligation_conds(u: Universe, s: Masks) -> int:
    """The mask of the conditions of the obligations that can occur on the
    left of some world sequent built from s: one walk over (formula, side)
    pairs from s, 0 the antecedent and 1 the succedent, each reached pair
    kept as a bit of its side's mask (see the module docstring for why the
    walk covers every world sequent).  A universe without obligations has
    no condition to place, and is answered without the walk."""
    if not u.obls:
        return 0
    formulas, first, second = u.formulas, u.first, u.second
    reached = list(s)
    todo = [(1 << i, side) for side in (0, 1) for i in ranks(s[side])]
    conds = 0
    while todo:
        bit, side = todo.pop()
        i = bit.bit_length() - 1
        t = type(formulas[i])
        a, b = first[i], second[i]
        if t is Neg:
            nxt = ((a, 1 - side),)
        elif t is Imp:
            nxt = ((a, 1 - side), (b, side))
        elif t is And or t is Or:
            nxt = ((a, side), (b, side))
        elif t is Box:
            nxt = ((a, side),)
        elif t is Obl:
            if side == 0:
                conds |= b
            nxt = ((a, 0), (a, 1), (b, 0), (b, 1))
        else:
            continue
        for bit, side in nxt:
            if not reached[side] & bit:
                reached[side] |= bit
                todo.append((bit, side))
    return conds


def truth_lemma_audit(
    model: MModel,
    resolved: Mapping[str, Sequent],
    cache: Optional[dict] = None,
    unicode: bool = False,
) -> list[str]:
    """Check every formula occurrence of every world sequent against the
    model: left occurrences must be true there and right occurrences false.
    Returns the violations as human-readable strings, formulas printed in
    ASCII, or in Unicode with unicode, empty on success.  cache memoises
    truth masks of model, as for semantics.holds."""
    bad: list[tuple[str, str, str, Formula]] = []
    if cache is None:
        cache = {}
    index = model.index
    for w in model.worlds:
        s = resolved[w]
        bit = 1 << index[w]
        false_left = [f for f in s.ante if not truth_mask(model, f, cache) & bit]
        true_right = [f for f in s.succ if truth_mask(model, f, cache) & bit]
        # sorted only when printed, so the messages keep their order
        if false_left:
            bad.extend((w, "left", "false", f) for f in sorted_formulas(false_left))
        if true_right:
            bad.extend((w, "right", "true", f) for f in sorted_formulas(true_right))
    return [
        f"{w}: {side} formula {print_formula(f, unicode)} is {value} in the model" for w, side, value, f in bad
    ]


def build(
    goal: Sequent,
    budget: Union[int, Budget] = DEFAULT_BUDGET,
    *,
    memo: Optional[Memo] = None,
) -> CounterModelResult:
    """Build and certify a countermodel for an underivable sequent.

    memo holds exact derivability verdicts already known, such as those of
    the search that refuted the goal (see certify); the oracle reads and
    fills it.  Raises ValueError when the goal is derivable, BudgetExceeded
    when the oracle runs out of steps, and CountermodelError when
    certification fails."""
    if memo is None:
        memo = Memo(Universe(goal))
    u = memo.universe
    start = u.encode(goal)
    builder = _Builder(Budget.ensure(budget), memo, left_obligation_conds(u, start))
    if not builder.underivable(start):
        raise ValueError("the sequent is derivable; no countermodel exists")
    root_bit = builder.explore(start)
    model = builder.finish()
    root = model.worlds[root_bit]
    labels = dict(zip(model.worlds, map(u.decode, builder.resolved)))

    frame_bad = validate_frame(model)
    if frame_bad:
        raise CountermodelError(
            "frame validation failed: " + "; ".join(str(v) for v in frame_bad)
        )
    truth_sets: dict = {}  # of this model, shared by the audit and the root check
    audit_bad = truth_lemma_audit(model, labels, truth_sets)
    if audit_bad:
        raise CountermodelError("truth audit failed: " + "; ".join(audit_bad))
    if not falsifies(model, root, goal, truth_sets):
        raise CountermodelError("the goal sequent still holds at the root world")
    return CounterModelResult(goal, model, root, labels)


class Certificate(NamedTuple):
    """A verdict with its certificate: the search result, carrying the
    derivation when the goal is derivable, and otherwise a certified
    countermodel."""

    search: SearchResult
    countermodel: Optional[CounterModelResult]


def certify(
    goal: Sequent, budget: Union[int, Budget] = DEFAULT_BUDGET, *, hypotheses: int = 0
) -> Certificate:
    """Prove goal, or else build and certify a countermodel to it.

    One search decides the goal.  When it fails, the countermodel is built
    on the memo of exact verdicts that search filled, so the goal is not
    decided again and the oracle starts from what the search settled.
    search.steps_used is the budget spent when the search ended; the
    construction spends from the same budget.  hypotheses is as for
    search.prove: a derivation keeps only the leading boxed assumptions
    its proof uses; it changes neither the verdict nor the countermodel."""
    b = Budget.ensure(budget)
    memo = Memo(Universe(goal))
    res = prove(goal, b, memo=memo, hypotheses=hypotheses)
    if res.accepted:
        return Certificate(res, None)
    return Certificate(res, build(goal, b, memo=memo))


def result_to_json(r: CounterModelResult) -> dict:
    return {
        "goal": print_sequent(r.sequent),
        "root": r.root,
        "certified": True,  # build raises rather than return an uncertified model
        "model": model_to_json(r.model),
        "labels": {w: print_sequent(r.resolved[w]) for w in r.model.worlds},
    }


def _countermodel_part(data: object) -> object:
    """The countermodel report that a prove, countermodel or consistent
    report carries, or data itself."""
    if isinstance(data, dict) and "countermodel" in data:
        return data["countermodel"]
    return data


def model_of_json(data: dict, close_rt: bool = False) -> MModel:
    """Load the model part of a bare model file, a countermodel report, or
    a CLI report that carries one.  Data of any other shape raises
    ValueError."""
    data = _countermodel_part(data)
    if isinstance(data, dict) and "model" in data and "worlds" not in data:
        data = data["model"]
    return model_from_json(data, close_rt=close_rt)


def claim_of_json(data: dict, model: MModel) -> Optional[CounterModelResult]:
    """The countermodel that a countermodel report, or a CLI report that
    carries one, claims of model, read back to the record build made; None
    for data without labels, such as a bare model file.  Labels that do not
    name exactly the model's worlds, or a goal or root of the wrong shape,
    raise ValueError; a label or goal that does not parse raises
    ParseError."""
    data = _countermodel_part(data)
    if not (isinstance(data, dict) and "labels" in data):
        return None
    labels, goal, root = data["labels"], data.get("goal"), data.get("root")
    if not (
        isinstance(labels, dict)
        and set(labels) == set(model.worlds)
        and all(isinstance(t, str) for t in labels.values())
    ):
        raise ValueError('malformed report: "labels" must map each world of the model to a sequent')
    if not isinstance(goal, str):
        raise ValueError('malformed report: "goal" must be a sequent')
    if not (isinstance(root, str) and root in model.worlds):
        raise ValueError('malformed report: "root" must name a world of the model')
    return CounterModelResult(parse_sequent(goal), model, root, {w: parse_sequent(t) for w, t in labels.items()})
