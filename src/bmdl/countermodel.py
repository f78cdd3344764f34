"""Certified countermodel extraction for underivable sequents.

Worlds are built from underivable set sequents, each first brought into a
resolved form by three interleaved moves, every one of them checked against
a search oracle that reads and fills a memo of exact verdicts (certify
shares it with the search that refuted the goal; see the search module for
why its entries are exact):

  * saturation under the one-premiss static rules (these are invertible,
    so underivability is preserved without an oracle call);
  * for each productive two-premiss static application, replacement of the
    sequent by its first underivable premiss, so that at the fixpoint every
    conjunction on the right, disjunction on the left and implication on
    the left has a decomposed alternative already present;
  * for every condition formula of an obligation occurring anywhere in the
    goal, placement of that condition on the left or on the right,
    whichever keeps the sequent underivable, the left tried first.

The last step makes the syntactic reading of obligation conditions agree
with their semantic truth sets, which is what lets a generator built from
formula occurrences certify the obligation clause of the truth conditions.

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

Reuse costs no oracle call and no new world.  The lookup keeps posting
lists from (side, formula) to the worlds carrying the formula on that
side, in creation order, and scans only the shortest list among P's
formulas: every world containing P is on each of those lists, so the first
one found there is the earliest overall, whatever the set iteration order.

The valuation makes an atom true exactly at the worlds carrying it on the
left, and the obligation map of a world takes one generator per
obligation on its left, built from the occurrence sets of its body and
condition among the world's successors.

build certifies the result before returning it: the frame conditions are
validated, every formula occurrence is audited against the truth
conditions (left occurrences true, right occurrences false), and the goal
must fail at the root world.  The audit and the root check share one memo
of the model's truth sets; both run in full.  A certification failure
raises CountermodelError rather than returning a bad model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, NamedTuple, Optional, Union

from .calculus import iter_two_premiss_static_applications, transitional_applications
from .formula import (
    Atom,
    Formula,
    Obl,
    Sequent,
    SetSequent,
    from_set_sequent,
    sequent_subformulas,
    sorted_formulas,
    to_set_sequent,
)
from .parser import Printer, print_sequent
from .search import Budget, DEFAULT_BUDGET, SearchResult, decide, prove, saturate
from .semantics import (
    Generator,
    MModel,
    falsifies,
    holds,
    model_from_json,
    model_to_json,
    rt_closure,
    validate_frame,
)


class CountermodelError(RuntimeError):
    """The construction could not be certified."""


@dataclass(frozen=True)
class CounterModelResult:
    sequent: Sequent
    model: MModel
    root: str
    resolved: Mapping[str, SetSequent]
    traces: Mapping[str, tuple[SetSequent, ...]]
    certified: bool


class _Builder:
    def __init__(
        self, budget: Budget, atomic_init: bool, memo: dict[SetSequent, bool], conds: tuple[Formula, ...]
    ):
        self.budget = budget
        self.atomic_init = atomic_init
        self.memo = memo
        self.conds = conds
        self.resolved: dict[str, SetSequent] = {}  # in creation order
        self.traces: dict[str, tuple[SetSequent, ...]] = {}
        self.edges: set[tuple[str, str]] = set()
        # (side, formula) -> the worlds carrying formula on that side (0 the
        # antecedent, 1 the succedent), in creation order
        self.postings: dict[tuple[int, Formula], list[str]] = {}

    def underivable(self, ss: SetSequent) -> bool:
        """The oracle: underivability from the memo of exact verdicts,
        searching with decide only for sequents it does not hold; decide
        records its root verdict."""
        known = self.memo.get(ss)
        if known is None:
            known = decide(ss, self.budget, atomic_init=self.atomic_init, memo=self.memo)
        return not known

    def resolve(self, ss: SetSequent) -> tuple[SetSequent, tuple[SetSequent, ...]]:
        trace = [ss]
        cur = ss
        base = None  # the last saturated sequent, contained in cur
        while True:
            steps, sat = saturate(cur, base, self.atomic_init)
            if steps:
                cur = sat
                trace.append(cur)
            base = cur
            app = next(iter_two_premiss_static_applications(cur), None)
            if app is not None:
                prem = next(
                    (p for p in app.premisses if self.underivable(p)), None
                )
                if prem is None:
                    raise CountermodelError(
                        f"every premiss of {app.rule.value} at "
                        f"{print_sequent(from_set_sequent(cur))} is derivable, "
                        "yet the sequent itself was not"
                    )
                cur = prem
                trace.append(cur)
                continue
            missing = next(
                (c for c in self.conds if c not in cur.ante and c not in cur.succ),
                None,
            )
            if missing is None:
                return cur, tuple(trace)
            left = SetSequent(cur.ante | {missing}, cur.succ)
            if self.underivable(left):
                cur = left
            else:
                right = SetSequent(cur.ante, cur.succ | {missing})
                if not self.underivable(right):
                    raise CountermodelError(
                        "condition placement failed: both polarities of a "
                        "condition formula make the world sequent derivable"
                    )
                cur = right
            trace.append(cur)

    def container(self, p: SetSequent) -> Optional[str]:
        """The earliest world whose resolved sequent contains the transitional
        premiss p componentwise, or None.  Every such world is on the posting
        list of each formula of p (p has at least its active formula), so
        scanning the shortest list finds the earliest."""
        shortest = min(
            [self.postings.get((0, f), ()) for f in p.ante]
            + [self.postings.get((1, f), ()) for f in p.succ],
            key=len,
        )
        return next((w for w in shortest if p <= self.resolved[w]), None)

    def explore(self, ss: SetSequent) -> str:
        resolved, trace = self.resolve(ss)
        wid = f"h{len(self.resolved)}"
        self.resolved[wid] = resolved
        self.traces[wid] = trace
        for side, fs in enumerate((resolved.ante, resolved.succ)):
            for f in fs:
                self.postings.setdefault((side, f), []).append(wid)
        for app in transitional_applications(resolved):
            witness = next(
                (w for w in map(self.container, app.premisses) if w is not None), None
            )
            if witness is None:
                prem = next((p for p in app.premisses if self.underivable(p)), None)
                if prem is None:
                    raise CountermodelError(
                        f"every premiss of {app.rule.value} at "
                        f"{print_sequent(from_set_sequent(resolved))} is derivable, "
                        "yet the sequent itself was not"
                    )
                witness = self.explore(prem)
            self.edges.add((wid, witness))
        return wid

    def finish(self) -> MModel:
        worlds = tuple(self.resolved)
        acc = rt_closure(worlds, frozenset(self.edges))
        onward: dict[str, set[str]] = {w: set() for w in worlds}
        for u, v in acc:
            onward[u].add(v)
        succ = {w: frozenset(vs) for w, vs in onward.items()}
        occurs_left: dict[Formula, frozenset[str]] = {}

        def left_of(f: Formula) -> frozenset[str]:
            got = occurs_left.get(f)
            if got is None:
                got = occurs_left[f] = frozenset(self.postings.get((0, f), ()))
            return got

        val = {
            w: frozenset(
                f.name for f in self.resolved[w].ante if isinstance(f, Atom)
            )
            for w in worlds
        }
        eta: dict[str, tuple[Generator, ...]] = {}
        for w in worlds:
            gens = []
            for f in sorted_formulas(self.resolved[w].ante):
                if isinstance(f, Obl):
                    g = Generator(left_of(f.body) & succ[w], left_of(f.cond) & succ[w])
                    if g not in gens:
                        gens.append(g)
            eta[w] = tuple(gens)
        return MModel(worlds, acc, eta, val)


def truth_lemma_audit(
    model: MModel, resolved: Mapping[str, SetSequent], cache: Optional[dict] = None
) -> list[str]:
    """Check every formula occurrence of every world sequent against the
    model: left occurrences must be true there and right occurrences false.
    Returns the violations as human-readable strings, empty on success.
    cache memoises truth sets of model, as for semantics.holds."""
    problems: list[str] = []
    if cache is None:
        cache = {}
    for w in model.worlds:
        s = resolved[w]
        for f in sorted_formulas(s.ante):
            if not holds(model, w, f, cache):
                problems.append(f"{w}: left formula is false in the model")
        for f in sorted_formulas(s.succ):
            if holds(model, w, f, cache):
                problems.append(f"{w}: right formula is true in the model")
    return problems


def build(
    goal: Union[Sequent, SetSequent],
    budget: Union[int, Budget] = DEFAULT_BUDGET,
    *,
    atomic_init: bool = False,
    memo: Optional[dict[SetSequent, bool]] = None,
) -> CounterModelResult:
    """Build and certify a countermodel for an underivable sequent.

    memo holds exact derivability verdicts already known, such as those of
    the search that refuted the goal (see certify); the oracle reads and
    fills it.  Raises ValueError when the goal is derivable, BudgetExceeded
    when the oracle runs out of steps, and CountermodelError when
    certification fails."""
    ms = goal if isinstance(goal, Sequent) else from_set_sequent(goal)
    ss = to_set_sequent(ms) if isinstance(goal, Sequent) else goal
    conds = tuple(
        sorted_formulas(
            {f.cond for f in sequent_subformulas(ss) if isinstance(f, Obl)}
        )
    )
    builder = _Builder(Budget.ensure(budget), atomic_init, {} if memo is None else memo, conds)
    if not builder.underivable(ss):
        raise ValueError("the sequent is derivable; no countermodel exists")
    root = builder.explore(ss)
    model = builder.finish()

    frame_bad = validate_frame(model)
    if frame_bad:
        raise CountermodelError(
            "frame validation failed: " + "; ".join(str(v) for v in frame_bad)
        )
    truth_sets: dict = {}  # of this model, shared by the audit and the root check
    audit_bad = truth_lemma_audit(model, builder.resolved, truth_sets)
    if audit_bad:
        raise CountermodelError("truth audit failed: " + "; ".join(audit_bad))
    if not falsifies(model, root, ms, truth_sets):
        raise CountermodelError("the goal sequent still holds at the root world")
    return CounterModelResult(
        sequent=ms,
        model=model,
        root=root,
        resolved=dict(builder.resolved),
        traces=dict(builder.traces),
        certified=True,
    )


class Certificate(NamedTuple):
    """A verdict with its certificate: the search result, carrying the
    derivation when the goal is derivable, and otherwise a certified
    countermodel."""

    search: SearchResult
    countermodel: Optional[CounterModelResult]


def certify(
    goal: Sequent,
    budget: Union[int, Budget] = DEFAULT_BUDGET,
    *,
    atomic_init: bool = False,
) -> Certificate:
    """Prove goal, or else build and certify a countermodel to it.

    One search decides the goal.  When it fails, the countermodel is built
    on the memo of exact verdicts that search filled, so the goal is not
    decided again and the oracle starts from what the search settled.
    search.steps_used is the budget spent when the search ended; the
    construction spends from the same budget."""
    b = Budget.ensure(budget)
    memo: dict[SetSequent, bool] = {}
    res = prove(goal, b, atomic_init=atomic_init, memo=memo)
    if res.accepted:
        return Certificate(res, None)
    return Certificate(res, build(goal, b, atomic_init=atomic_init, memo=memo))


def result_to_json(r: CounterModelResult) -> dict:
    show = Printer()
    return {
        "goal": show.sequent(r.sequent),
        "root": r.root,
        "certified": r.certified,
        "model": model_to_json(r.model),
        "histories": {
            w: [show.sequent(from_set_sequent(s)) for s in r.traces[w]]
            for w in r.model.worlds
        },
    }


def model_of_json(data: dict, close_rt: bool = False) -> MModel:
    """Load the model part of either a bare model file or a countermodel
    report.  Data of any other shape raises ValueError."""
    if isinstance(data, dict) and "model" in data and "worlds" not in data:
        data = data["model"]
    return model_from_json(data, close_rt=close_rt)
