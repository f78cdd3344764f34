import itertools
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, NamedTuple

import hypothesis.strategies as st
from hypothesis import settings

from bmdl.calculus import RuleApplication, RuleId, Universe
from bmdl.countermodel import CounterModelResult, truth_lemma_audit
from bmdl.formula import (
    And,
    Atom,
    BOT,
    Bottom,
    Box,
    Formula,
    Imp,
    Neg,
    Obl,
    Or,
    Sequent,
    sorted_formulas,
)
from bmdl.kernel import Derivation, DerivationError, _check_node
from bmdl.parser import print_sequent
from bmdl.search import SatStep, saturate
from bmdl.semantics import FrameViolation, MModel, falsifies, validate_frame

REPO = Path(__file__).resolve().parent.parent
CORPUS = REPO / "corpus"

settings.register_profile("suite", deadline=None, max_examples=60)
settings.load_profile("suite")

ACCEPTANCE_LINES: list = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)

atoms = st.builds(Atom, st.sampled_from(["p", "q", "r", "s"]))
leaves = st.one_of(atoms, st.just(BOT))


def _extend(children):
    return st.one_of(
        st.builds(Neg, children),
        st.builds(Box, children),
        st.builds(And, children, children),
        st.builds(Or, children, children),
        st.builds(Imp, children, children),
        st.builds(Obl, children, children),
    )


formulas = st.recursive(leaves, _extend, max_leaves=8)

formula_tuples = st.lists(formulas, max_size=3).map(tuple)

sequents = st.builds(Sequent, formula_tuples, formula_tuples)


def reference_sort_key(f):
    """The recursive sort key that the cached keys must reproduce."""
    match f:
        case Bottom():
            return (0,)
        case Atom(name):
            return (1, name)
        case Neg(g):
            return (2, reference_sort_key(g))
        case And(l, r):
            return (3, reference_sort_key(l), reference_sort_key(r))
        case Or(l, r):
            return (4, reference_sort_key(l), reference_sort_key(r))
        case Imp(l, r):
            return (5, reference_sort_key(l), reference_sort_key(r))
        case Box(g):
            return (6, reference_sort_key(g))
        case Obl(b, c):
            return (7, reference_sort_key(b), reference_sort_key(c))
    raise TypeError(f"not a formula: {f!r}")


def reference_hash(f):
    """The dataclass hash of f: the hash of the tuple of its fields."""
    return hash(tuple(getattr(f, name) for name in f.__match_args__))


ANTE, SUCC = 0, 1  # the sides, as Universe.moves indexes them


class SetSequent(NamedTuple):
    """A sequent as two frozensets, the form the formula-level references
    below work on.  Universe and its encode read any pair of formula
    collections, so one can be handed to them as it is."""

    ante: frozenset
    succ: frozenset


def set_sequent(ante: Iterable[Formula] = (), succ: Iterable[Formula] = ()) -> SetSequent:
    return SetSequent(frozenset(ante), frozenset(succ))


def to_set_sequent(s: Sequent) -> SetSequent:
    return SetSequent(frozenset(s.ante), frozenset(s.succ))


def contains(big: SetSequent, small: SetSequent) -> bool:
    """Componentwise containment of small in big."""
    return small.ante <= big.ante and small.succ <= big.succ


def decode_sets(u: Universe, masks) -> SetSequent:
    """The masks over u as a set sequent."""
    return to_set_sequent(u.decode(masks))


def one_premiss_move(f, side, s):
    """The universe's move table entry for principal f on the given side of
    the set sequent s, as the rule and the formulas it adds to the
    antecedent and to the succedent, each in sort_key order: None when no
    one-premiss rule takes f there or its move is unproductive at s."""
    u = Universe(SetSequent(s.ante | {f}, s.succ))
    move = u.moves[side][u.rank[f]]
    if move is None:
        return None
    rule, add_ante, add_succ = move
    ante, succ = u.encode(s)
    if not (add_ante & ~ante or add_succ & ~succ):
        return None
    return rule, tuple(u.members(add_ante)), tuple(u.members(add_succ))


def decoded_steps(u, steps):
    """Saturation moves over u as formulas: each principal in a 1-tuple,
    and the added formulas in sort_key order."""
    return tuple(
        SatStep(
            step.rule,
            (u.formulas[step.principal],),
            tuple(u.members(step.new_ante)),
            tuple(u.members(step.new_succ)),
        )
        for step in steps
    )


def saturate_sets(s: SetSequent, base: SetSequent | None = None):
    """search.saturate run on the masks of s over its own universe, its
    moves and result decoded to formulas."""
    u = Universe(s)
    steps, sat = saturate(u, u.encode(s), None if base is None else u.encode(base))
    return decoded_steps(u, steps), decode_sets(u, sat)


@dataclass(frozen=True)
class FormulaApplication:
    """A rule application with formulas for principals and set sequents
    for premisses, as the references below enumerate them."""

    rule: RuleId
    principal: tuple[Formula, ...]
    premisses: tuple[SetSequent, ...]


def decoded(u: Universe, app: RuleApplication) -> FormulaApplication:
    return FormulaApplication(
        app.rule,
        tuple(u.formulas[i] for i in app.principal),
        tuple(decode_sets(u, p) for p in app.premisses),
    )


# References: the formula-level enumerators that the universe's tables and
# int masks replaced, kept to test them against.


def _grown(s: SetSequent, ante=(), succ=()) -> SetSequent:
    return SetSequent(
        s.ante.union(ante) if ante else s.ante,
        s.succ.union(succ) if succ else s.succ,
    )


def _neg_l(f, ante, succ):
    return None if f.f in succ else (RuleId.NEG_L, (), (f.f,))


def _and_l(f, ante, succ):
    l, r = f.l, f.r
    if l in ante and r in ante:
        return None
    return RuleId.AND_L, (l,) if l == r else (l, r), ()


def _t(f, ante, succ):
    return None if f.f in ante else (RuleId.T, (f.f,), ())


def _neg_r(f, ante, succ):
    return None if f.f in ante else (RuleId.NEG_R, (f.f,), ())


def _or_r(f, ante, succ):
    l, r = f.l, f.r
    if l in succ and r in succ:
        return None
    return RuleId.OR_R, (), (l,) if l == r else (l, r)


def _imp_r(f, ante, succ):
    if f.l in ante and f.r in succ:
        return None
    return RuleId.IMP_R, (f.l,), (f.r,)


# One table per side, antecedent first, from the constructor of a principal
# f to a function of f and the two sides of the sequent: the rule with the
# formulas the move adds to each side, or None when it adds nothing new.
REFERENCE_MOVES = (
    {Neg: _neg_l, And: _and_l, Box: _t},
    {Neg: _neg_r, Or: _or_r, Imp: _imp_r},
)


def reference_moves(s: SetSequent) -> list[FormulaApplication]:
    """The productive one-premiss applications at s by REFERENCE_MOVES,
    antecedent before succedent, each side in sort_key order."""
    apps = []
    for side, fs in ((ANTE, s.ante), (SUCC, s.succ)):
        for f in sorted_formulas(fs):
            move = REFERENCE_MOVES[side].get(type(f))
            found = None if move is None else move(f, s.ante, s.succ)
            if found is not None:
                rule, add_ante, add_succ = found
                apps.append(FormulaApplication(rule, (f,), (_grown(s, add_ante, add_succ),)))
    return apps


def reference_two_premiss_applications(s: SetSequent) -> list[FormulaApplication]:
    """The two-premiss static applications at s whose premisses are both
    productive, in enumeration order: AndR by succedent formula, then OrL,
    then ImpL by antecedent formula, each in sort_key order."""
    ante, succ = s.ante, s.succ
    apps = []
    for f in sorted_formulas([f for f in succ if isinstance(f, And)]):
        if f.l not in succ and f.r not in succ:
            apps.append(
                FormulaApplication(RuleId.AND_R, (f,), (_grown(s, succ=(f.l,)), _grown(s, succ=(f.r,))))
            )
    ors_imps = sorted_formulas([f for f in ante if isinstance(f, (Or, Imp))])
    for f in ors_imps:
        if isinstance(f, Or) and f.l not in ante and f.r not in ante:
            apps.append(
                FormulaApplication(RuleId.OR_L, (f,), (_grown(s, ante=(f.l,)), _grown(s, ante=(f.r,))))
            )
    for f in ors_imps:
        if isinstance(f, Imp) and f.l not in succ and f.r not in ante:
            apps.append(
                FormulaApplication(RuleId.IMP_L, (f,), (_grown(s, succ=(f.l,)), _grown(s, ante=(f.r,))))
            )
    return apps


def reference_transitional_applications(s: SetSequent) -> list[FormulaApplication]:
    """D1, D2, Mon, Four instances, in that order, each by its principals
    in sort_key order; premisses keep the boxed part of the antecedent."""
    boxed = frozenset(f for f in s.ante if isinstance(f, Box))
    obls_ante = sorted_formulas([f for f in s.ante if isinstance(f, Obl)])
    obls_succ = sorted_formulas([f for f in s.succ if isinstance(f, Obl)])
    apps = []
    for o in obls_ante:
        apps.append(FormulaApplication(RuleId.D1, (o,), (SetSequent(boxed | {o.body}, frozenset()),)))
    for o1, o2 in itertools.combinations(obls_ante, 2):
        apps.append(
            FormulaApplication(
                RuleId.D2,
                (o1, o2),
                (
                    SetSequent(boxed | {o1.body, o2.body}, frozenset()),
                    SetSequent(boxed | {o1.cond}, frozenset({o2.cond})),
                    SetSequent(boxed | {o2.cond}, frozenset({o1.cond})),
                ),
            )
        )
    for o1 in obls_ante:
        for o2 in obls_succ:
            apps.append(
                FormulaApplication(
                    RuleId.MON,
                    (o1, o2),
                    (
                        SetSequent(boxed | {o1.body}, frozenset({o2.body})),
                        SetSequent(boxed | {o1.cond}, frozenset({o2.cond})),
                        SetSequent(boxed | {o2.cond}, frozenset({o1.cond})),
                    ),
                )
            )
    for f in sorted_formulas([f for f in s.succ if isinstance(f, Box)]):
        apps.append(FormulaApplication(RuleId.FOUR, (f,), (SetSequent(boxed, frozenset({f.f})),)))
    return apps


def two_premiss_apps(s: SetSequent) -> list[FormulaApplication]:
    """The universe's first branching application at s, decoded, as a list
    of none or one."""
    u = Universe(s)
    app = u.first_branching(*u.encode(s))
    return [] if app is None else [decoded(u, app)]


def transitional_apps(s: SetSequent) -> list[FormulaApplication]:
    """The universe's transitional applications at s, decoded."""
    u = Universe(s)
    return [decoded(u, app) for app in u.transitional(*u.encode(s))]


# References: the model checks and the kernel's Assumption and Cut checks as
# they were before models were checked over world bitmasks and the kernel
# compared tuples before multisets, kept to test the faster ones against.


def certifies(cm: CounterModelResult) -> bool:
    """Whether cm passes the three checks build certified it by: the frame
    conditions, the audit of every label, and its sequent failing at its
    root."""
    return (
        not validate_frame(cm.model)
        and not truth_lemma_audit(cm.model, cm.resolved)
        and falsifies(cm.model, cm.root, cm.sequent)
    )


def reference_validate_frame(m: MModel) -> list[FrameViolation]:
    """validate_frame over sets of world names, sorting as it goes."""
    bad: list[FrameViolation] = []
    ws = set(m.worlds)
    if not ws:
        bad.append(FrameViolation("worlds", "a model needs at least one world"))
        return bad
    if len(ws) != len(m.worlds):
        bad.append(FrameViolation("worlds", "duplicate world names"))
    pairs = sorted(m.acc)
    for u, v in pairs:
        if u not in ws or v not in ws:
            bad.append(FrameViolation("reference", f"accessibility pair ({u}, {v}) mentions an unknown world"))
    for w in sorted(set(m.eta) | set(m.val)):
        if w not in ws:
            bad.append(FrameViolation("reference", f"entry for unknown world {w}"))
    if bad:
        return bad

    for w in m.worlds:
        if (w, w) not in m.acc:
            bad.append(FrameViolation("reflexivity", f"missing ({w}, {w})"))
    onward = {w: sorted(m.successors(w)) for w in ws}
    for u, v in pairs:
        for x in onward[v]:
            if (u, x) not in m.acc:
                bad.append(FrameViolation("transitivity", f"({u}, {v}) and ({v}, {x}) but not ({u}, {x})"))

    for w in m.worlds:
        gens = m.eta.get(w, ())
        reach = m.successors(w)
        for g in gens:
            if not g.base <= ws or not g.cond <= ws:
                bad.append(FrameViolation("reference", f"generator at {w} mentions unknown worlds"))
            elif not g.base <= reach or not g.cond <= reach:
                bad.append(FrameViolation("generator-range", f"generator at {w} reaches outside R[{w}]"))
            if not g.base:
                bad.append(FrameViolation("empty-base", f"generator at {w} has an empty base"))
        for i, g1 in enumerate(gens):
            for g2 in gens[i + 1:]:
                if g1.cond == g2.cond and not (g1.base & g2.base):
                    bad.append(
                        FrameViolation("conflict", f"generators at {w} share a cond set but have disjoint bases")
                    )
    return bad


def reference_truth_set(m: MModel, f: Formula) -> frozenset[str]:
    """truth_set by a closure over sets of world names."""
    cache: dict = {}
    all_worlds = frozenset(m.worlds)

    def ev(f: Formula) -> frozenset[str]:
        got = cache.get(f)
        if got is not None:
            return got
        match f:
            case Bottom():
                v = frozenset()
            case Atom(name):
                v = frozenset(w for w in m.worlds if name in m.val.get(w, frozenset()))
            case Neg(g):
                v = all_worlds - ev(g)
            case And(l, r):
                v = ev(l) & ev(r)
            case Or(l, r):
                v = ev(l) | ev(r)
            case Imp(l, r):
                v = (all_worlds - ev(l)) | ev(r)
            case Box(g):
                tg = ev(g)
                v = frozenset(w for w in m.worlds if m.successors(w) <= tg)
            case Obl(body, cond):
                tb, tc = ev(body), ev(cond)
                v = frozenset(
                    w
                    for w in m.worlds
                    if any(
                        g.base <= (tb & m.successors(w)) and g.cond == (tc & m.successors(w))
                        for g in m.eta.get(w, ())
                    )
                )
        cache[f] = v
        return v

    return ev(f)


def _reference_fault(d: Derivation, assumed: list[Sequent]):
    """The Counter-first Assumption and Cut checks: the reason d fails, or None."""
    if d.rule is RuleId.ASSUMPTION:
        if d.children:
            return f"Assumption expects 0 premiss(es), got {len(d.children)}"
        if not any(Counter(d.conclusion.ante) == Counter(a.ante) and Counter(d.conclusion.succ) == Counter(a.succ)
                   for a in assumed):
            return f"sequent {print_sequent(d.conclusion)} is not an assumption"
        return None
    if len(d.children) != 2:
        return f"Cut expects 2 premiss(es), got {len(d.children)}"
    if len(d.principal) != 1:
        return "Cut needs its cut formula as principal"
    p = d.principal[0]
    l, r = d.children[0].conclusion, d.children[1].conclusion
    la, ls, ra, rs = Counter(l.ante), Counter(l.succ), Counter(r.ante), Counter(r.succ)
    if ls[p] < 1:
        return "cut formula missing from the left premiss succedent"
    if ra[p] < 1:
        return "cut formula missing from the right premiss antecedent"
    want_a = la + (ra - Counter((p,)))
    want_s = (ls - Counter((p,))) + rs
    if Counter(d.conclusion.ante) != want_a or Counter(d.conclusion.succ) != want_s:
        return "Cut conclusion does not split into its premisses"
    return None


def reference_check_derivation(d: Derivation, assumptions=()) -> bool:
    """check_derivation with the Counter-first Assumption and Cut checks;
    every other node goes through the kernel's own node check."""
    assumed = list(assumptions)

    def walk(d: Derivation, path: tuple[int, ...]) -> None:
        if d.rule in (RuleId.ASSUMPTION, RuleId.CUT):
            reason = _reference_fault(d, assumed)
            if reason is not None:
                raise DerivationError(path, reason)
        else:
            _check_node(d, assumed, path)
        for i, child in enumerate(d.children):
            walk(child, path + (i,))

    walk(d, ())
    return True
