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

Each resolved world then spawns one witness per transitional application:
the application's first underivable premiss, resolved in turn and shared
globally, so a premiss already seen only contributes an accessibility
edge.  The valuation makes an atom true exactly at the worlds carrying it
on the left, and the obligation map of a world takes one generator per
obligation on its left, built from the occurrence sets of its body and
condition among the world's successors.

build certifies the result before returning it: the frame conditions are
validated, every formula occurrence is audited against the truth
conditions (left occurrences true, right occurrences false), and the goal
must fail at the root world.  A certification failure raises
CountermodelError rather than returning a bad model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, NamedTuple, Optional, Union

from .calculus import transitional_applications, two_premiss_static_applications
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


class _Oracle:
    """Underivability from the memo of exact verdicts, searching with decide
    only for sequents it does not hold; decide records its root verdict."""

    def __init__(self, budget: Budget, atomic_init: bool, memo: dict[SetSequent, bool]):
        self.budget = budget
        self.atomic_init = atomic_init
        self.memo = memo

    def underivable(self, ss: SetSequent) -> bool:
        known = self.memo.get(ss)
        if known is None:
            known = decide(ss, self.budget, atomic_init=self.atomic_init, memo=self.memo)
        return not known


@dataclass(frozen=True)
class CounterModelResult:
    sequent: Sequent
    model: MModel
    root: str
    resolved: Mapping[str, SetSequent]
    traces: Mapping[str, tuple[SetSequent, ...]]
    certified: bool


class _Builder:
    def __init__(self, oracle: _Oracle, conds: tuple[Formula, ...]):
        self.oracle = oracle
        self.conds = conds
        self.ids: dict[SetSequent, str] = {}
        self.order: list[str] = []
        self.resolved: dict[str, SetSequent] = {}
        self.traces: dict[str, tuple[SetSequent, ...]] = {}
        self.edges: set[tuple[str, str]] = set()

    def resolve(self, ss: SetSequent) -> tuple[SetSequent, tuple[SetSequent, ...]]:
        trace = [ss]
        cur = ss
        while True:
            _, sat = saturate(cur)
            if sat != cur:
                cur = sat
                trace.append(cur)
            apps = two_premiss_static_applications(cur)
            if apps:
                app = apps[0]
                prem = next(
                    (p for p in app.premisses if self.oracle.underivable(p)), None
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
            if self.oracle.underivable(left):
                cur = left
            else:
                right = SetSequent(cur.ante, cur.succ | {missing})
                if not self.oracle.underivable(right):
                    raise CountermodelError(
                        "condition placement failed: both polarities of a "
                        "condition formula make the world sequent derivable"
                    )
                cur = right
            trace.append(cur)

    def explore(self, ss: SetSequent) -> str:
        resolved, trace = self.resolve(ss)
        wid = self.ids.get(resolved)
        if wid is not None:
            return wid
        wid = f"h{len(self.order)}"
        self.ids[resolved] = wid
        self.order.append(wid)
        self.resolved[wid] = resolved
        self.traces[wid] = trace
        for app in transitional_applications(resolved):
            prem = next((p for p in app.premisses if self.oracle.underivable(p)), None)
            if prem is None:
                raise CountermodelError(
                    f"every premiss of {app.rule.value} at "
                    f"{print_sequent(from_set_sequent(resolved))} is derivable, "
                    "yet the sequent itself was not"
                )
            self.edges.add((wid, self.explore(prem)))
        return wid

    def finish(self) -> MModel:
        worlds = tuple(self.order)
        acc = rt_closure(worlds, frozenset(self.edges))
        onward: dict[str, set[str]] = {w: set() for w in worlds}
        for u, v in acc:
            onward[u].add(v)
        succ = {w: frozenset(vs) for w, vs in onward.items()}
        occurs_left: dict[Formula, frozenset[str]] = {}

        def left_of(f: Formula) -> frozenset[str]:
            got = occurs_left.get(f)
            if got is None:
                got = frozenset(w for w in worlds if f in self.resolved[w].ante)
                occurs_left[f] = got
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
    model: MModel, resolved: Mapping[str, SetSequent]
) -> list[str]:
    """Check every formula occurrence of every world sequent against the
    model: left occurrences must be true there and right occurrences false.
    Returns the violations as human-readable strings, empty on success."""
    problems: list[str] = []
    cache: dict = {}
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
    oracle = _Oracle(Budget.ensure(budget), atomic_init, {} if memo is None else memo)
    if not oracle.underivable(ss):
        raise ValueError("the sequent is derivable; no countermodel exists")
    conds = tuple(
        sorted_formulas(
            {f.cond for f in sequent_subformulas(ss) if isinstance(f, Obl)}
        )
    )
    builder = _Builder(oracle, conds)
    root = builder.explore(ss)
    model = builder.finish()

    frame_bad = validate_frame(model)
    if frame_bad:
        raise CountermodelError(
            "frame validation failed: " + "; ".join(str(v) for v in frame_bad)
        )
    audit_bad = truth_lemma_audit(model, builder.resolved)
    if audit_bad:
        raise CountermodelError("truth audit failed: " + "; ".join(audit_bad))
    if not falsifies(model, root, ms):
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
    report."""
    if "model" in data and "worlds" not in data:
        data = data["model"]
    return model_from_json(data, close_rt=close_rt)
