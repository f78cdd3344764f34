import random
from collections import Counter

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from bmdl.calculus import TRANSITIONAL, RuleId, Universe
from bmdl.consistency import reduction_sequent
from bmdl.formula import (
    And,
    Atom,
    BOT,
    Box,
    Imp,
    Neg,
    Obl,
    Or,
    Sequent,
    sorted_formulas,
)
from bmdl.gen import random_assumptions, random_formula, random_sequent
from bmdl.kernel import Derivation, check_derivation, premisses_for
from bmdl.parser import parse_sequent
from bmdl.search import (
    Budget,
    BudgetExceeded,
    Memo,
    SatStep,
    closure_of,
    decide,
    proof_tree,
    prove,
    saturate,
)

from conftest import (
    ANTE,
    SUCC,
    FormulaApplication,
    SetSequent,
    contains,
    decode_sets,
    one_premiss_move,
    reference_transitional_applications,
    reference_two_premiss_applications,
    saturate_sets,
    sequents,
    set_sequent,
    to_set_sequent,
)

p, q = Atom("p"), Atom("q")

DERIVABLE = [
    "|- ([](p -> q) & O(p / r)) -> O(q / r)",
    "|- [](q -> ~p) -> ~(O(p / r) & O(q / r))",
    "|- ([]((q -> r) & (r -> q)) & O(p / q)) -> O(p / r)",
    "|- [](p -> q) -> ([]p -> []q)",
    "|- []p -> p",
    "|- []p -> [][]p",
    "|- ~O(false / q)",
    "|- p | ~p",
    "p & q |- q & p",
    "[]p, [](p -> q) |- []q",
    "O(p / r) |- O(p | q / r)",
    "|- O(p / q) -> O(p / q)",
    "[](p -> q), [](q -> p), O(r / p) |- O(r / q)",
]

UNDERIVABLE = [
    "|- false",
    "|- p",
    "p |- q",
    "|- O(p / q)",
    "O(p / q) |-",
    "|- []p",
    "p |- []p",
    "O(p / q) |- O(p / r)",
    "O(p / q) |- O(q / p)",
    "|- O(p / q) -> O(p & q / q)",
    "[](p -> q) |- O(q / r) -> O(p / r)",
]


@pytest.mark.parametrize("text", DERIVABLE)
def test_derivable_sequents_are_accepted(text):
    assert decide(parse_sequent(text))


@pytest.mark.parametrize("text", UNDERIVABLE)
def test_underivable_sequents_are_rejected(text):
    assert not decide(parse_sequent(text))


@pytest.mark.parametrize("text", DERIVABLE)
def test_accepted_searches_assemble_checkable_derivations(text):
    s = parse_sequent(text)
    res = prove(s)
    assert res.accepted
    assert res.derivation.conclusion == s
    assert check_derivation(res.derivation)


def test_loop_check_terminates_self_feeding_obligations():
    # the transitional premiss of the extracted obligation keeps
    # reproducing the same goal, so only the loop check can stop it
    s = Sequent((Box(Obl(p, p)),), (BOT,))
    assert not decide(s)
    # contradictory bodies are fine when the conditions differ
    s2 = Sequent((Box(Obl(p, q)), Box(Obl(Neg(p), Atom("r")))), ())
    assert not decide(s2)
    # and clash when they agree
    s3 = Sequent((Box(Obl(p, q)), Box(Obl(Neg(p), q))), ())
    assert decide(s3)


def test_duplicates_in_the_goal_do_not_change_the_verdict():
    assert decide(parse_sequent("p, p |- p"))
    res = prove(parse_sequent("p & q, p & q |- q, q"))
    assert res.accepted
    assert res.derivation.conclusion == parse_sequent("p & q, p & q |- q, q")
    assert check_derivation(res.derivation)


def reference_one_premiss_applications(s: SetSequent) -> list[FormulaApplication]:
    """Every productive one-premiss static application at s, antecedent
    before succedent, each side in sort_key order, with each rule's
    productivity test spelled out: the enumeration that saturation by
    restarting the scan after every move takes the first entry of."""

    def grown(ante=(), succ=()):
        return SetSequent(s.ante.union(ante), s.succ.union(succ))

    ante, succ = s.ante, s.succ
    apps = []
    for f in sorted_formulas(ante):
        match f:
            case Neg(g):
                if g not in succ:
                    apps.append(FormulaApplication(RuleId.NEG_L, (f,), (grown(succ=(g,)),)))
            case And(l, r):
                if l not in ante or r not in ante:
                    apps.append(FormulaApplication(RuleId.AND_L, (f,), (grown(ante=(l, r)),)))
            case Box(g):
                if g not in ante:
                    apps.append(FormulaApplication(RuleId.T, (f,), (grown(ante=(g,)),)))
    for f in sorted_formulas(succ):
        match f:
            case Neg(g):
                if g not in ante:
                    apps.append(FormulaApplication(RuleId.NEG_R, (f,), (grown(ante=(g,)),)))
            case Or(l, r):
                if l not in succ or r not in succ:
                    apps.append(FormulaApplication(RuleId.OR_R, (f,), (grown(succ=(l, r)),)))
            case Imp(l, r):
                if l not in ante or r not in succ:
                    apps.append(
                        FormulaApplication(RuleId.IMP_R, (f,), (grown(ante=(l,), succ=(r,)),))
                    )
    return apps


def _restart_scan(s: SetSequent):
    """The moves of saturation by restarting the scan after every move, each
    the first entry of reference_one_premiss_applications, as (step, the
    sequent after it); the formulas a move adds are listed in sort_key
    order, as saturate_sets decodes them."""
    while True:
        apps = reference_one_premiss_applications(s)
        if not apps:
            return
        principal, prem = apps[0].principal, apps[0].premisses[0]
        step = SatStep(
            apps[0].rule,
            principal,
            tuple(sorted_formulas(prem.ante - s.ante)),
            tuple(sorted_formulas(prem.succ - s.succ)),
        )
        yield step, prem
        s = prem


def full_saturation(s: SetSequent) -> tuple[tuple[SatStep, ...], SetSequent]:
    """Saturation to the fixpoint by the restart scan, closed or not."""
    steps = []
    for step, s in _restart_scan(s):
        steps.append(step)
    return tuple(steps), s


def reference_closure(s: SetSequent):
    """The zero-premiss rule closing s, if any, with its principal: Init on
    the least shared formula in sort_key order."""
    if BOT in s.ante:
        return (RuleId.BOTTOM_L, ())
    shared = s.ante & s.succ
    return (RuleId.INIT, (sorted_formulas(shared)[0],)) if shared else None


def closed(s: SetSequent) -> bool:
    return reference_closure(s) is not None


def closure_sets(s: SetSequent):
    """closure_of run on the masks of s over its own universe, its
    principal decoded."""
    u = Universe(s)
    found = closure_of(u, u.encode(s))
    return None if found is None else (found[0], tuple(u.formulas[i] for i in found[1]))


def reference_saturate(s: SetSequent) -> tuple[tuple[SatStep, ...], SetSequent]:
    """The restart scan, stopped at the first closed sequent: none of its
    moves when s is closed already."""
    steps = []
    if not closed(s):
        for step, s in _restart_scan(s):
            steps.append(step)
            if closed(s):
                break
    return tuple(steps), s


def _grown(s: SetSequent, step: SatStep) -> SetSequent:
    """s with the formulas step added, each of them new to its side."""
    assert not (set(step.new_ante) & s.ante or set(step.new_succ) & s.succ)
    return SetSequent(s.ante.union(step.new_ante), s.succ.union(step.new_succ))


def generated_sequents(seed: int, count: int) -> list[SetSequent]:
    """Seeded bmdl.gen sequents of the frozen-verdict mix: sizes 6-10,
    widths 2-3."""
    rng = random.Random(seed)
    return [
        to_set_sequent(random_sequent(rng, size=rng.randint(6, 10), width=rng.randint(2, 3)))
        for _ in range(count)
    ]


@st.composite
def sequents_with_extras(draw):
    """A set sequent, and formulas drawn from its subformulas for each side."""
    seq = draw(sequents)
    s, subs = to_set_sequent(seq), Universe(seq).formulas
    if not subs:
        return s, frozenset(), frozenset()
    extra = st.frozensets(st.sampled_from(subs), max_size=4)
    return s, draw(extra), draw(extra)


def test_saturation_reaches_a_fixpoint():
    s = set_sequent([Neg(Neg(p)), Box(And(p, q))], [Or(Atom("r"), Atom("s"))])
    steps, sat = saturate_sets(s)
    assert reference_one_premiss_applications(sat) == []
    assert not closed(sat)
    assert contains(sat, s)
    # replaying the recorded additions lands on the same sequent
    cur = s
    for step in steps:
        cur = _grown(cur, step)
    assert cur == sat


def test_saturation_stops_at_the_first_closing_move():
    r = Atom("r")
    s = set_sequent([And(p, q), Neg(r)], [Or(p, Atom("s")), Imp(q, Atom("t"))])
    steps, sat = saturate_sets(s)
    # OrR puts p on the right, where AndL put it on the left: ImpR, next in
    # the agenda, is never made
    assert [step.rule for step in steps] == [RuleId.NEG_L, RuleId.AND_L, RuleId.OR_R]
    assert closure_sets(sat) == (RuleId.INIT, (p,))
    assert full_saturation(s)[0][:3] == steps
    assert [step.rule for step in full_saturation(s)[0][3:]] == [RuleId.IMP_R]
    assert saturate_sets(sat) == ((), sat)  # a closed start makes no move
    # a shared formula closes whatever its shape
    boxed = set_sequent([Box(p), Box(Box(p))], [Box(p)])
    assert saturate_sets(boxed)[0] == ()


@given(sequents)
def test_saturation_takes_the_first_enumerated_move(seq):
    cur = to_set_sequent(seq)
    steps, sat = saturate_sets(cur)
    for i, step in enumerate(steps):
        assert not closed(cur)
        first = reference_one_premiss_applications(cur)[0]
        cur = _grown(cur, step)
        assert (step.rule, step.principal, cur) == (
            first.rule,
            first.principal,
            first.premisses[0],
        )
    assert cur == sat
    assert closed(sat) or not reference_one_premiss_applications(sat)


@given(sequents)
def test_agenda_saturation_equals_the_restart_scan(seq):
    s = to_set_sequent(seq)
    assert saturate_sets(s) == reference_saturate(s)


def test_agenda_saturation_equals_the_restart_scan_on_generated_sequents():
    for s in generated_sequents(2718, 300):
        assert saturate_sets(s) == reference_saturate(s)


def _seeded_agrees(s, extra_ante, extra_succ):
    base = full_saturation(s)[1]
    if closed(base):
        return  # a base must not be closed
    wider = SetSequent(base.ante | extra_ante, base.succ | extra_succ)
    assert saturate_sets(wider, base) == saturate_sets(wider) == reference_saturate(wider)


@given(sequents_with_extras())
def test_saturation_seeded_by_a_saturated_base_equals_the_restart_scan(drawn):
    _seeded_agrees(*drawn)


def test_seeded_saturation_equals_the_restart_scan_on_generated_sequents():
    rng = random.Random(3141)
    for s in generated_sequents(1618, 300):
        subs = Universe(s).formulas
        _seeded_agrees(
            s,
            frozenset(rng.sample(subs, min(len(subs), rng.randint(0, 3)))),
            frozenset(rng.sample(subs, min(len(subs), rng.randint(0, 3)))),
        )


@given(sequents_with_extras())
def test_one_premiss_moves_are_antimonotone(drawn):
    s, extra_ante, extra_succ = drawn
    wider = SetSequent(s.ante | extra_ante, s.succ | extra_succ)
    for f in Universe(s).formulas:
        for side in (ANTE, SUCC):
            if one_premiss_move(f, side, s) is None:
                assert one_premiss_move(f, side, wider) is None


@given(sequents)
def test_move_table_gives_the_reference_applications(seq):
    s = to_set_sequent(seq)
    from_table = []
    for side, fs in ((ANTE, s.ante), (SUCC, s.succ)):
        for f in sorted_formulas(fs):
            move = one_premiss_move(f, side, s)
            if move is not None:
                rule, add_ante, add_succ = move
                prem = SetSequent(s.ante.union(add_ante), s.succ.union(add_succ))
                from_table.append(FormulaApplication(rule, (f,), (prem,)))
    assert from_table == reference_one_premiss_applications(s)


class _CountingTable(list):
    """A move table that counts, in seen, each (side, formula) it is read at."""

    def __init__(self, u, side, seen):
        super().__init__(u.moves[side])
        self.u, self.side, self.seen = u, side, seen

    def __getitem__(self, i):
        self.seen[self.side, self.u.formulas[i]] += 1
        return super().__getitem__(i)


@given(sequents_with_extras())
def test_saturation_examines_each_formula_once(drawn):
    s, extra_ante, extra_succ = drawn
    base = full_saturation(s)[1]
    if closed(base):
        return  # a base must not be closed
    wider = SetSequent(base.ante | extra_ante, base.succ | extra_succ)
    u = Universe(wider)
    seen = Counter()
    u.moves = (_CountingTable(u, ANTE, seen), _CountingTable(u, SUCC, seen))
    _, sat = saturate(u, u.encode(wider), u.encode(base))
    sat = decode_sets(u, sat)
    assert all(n == 1 for n in seen.values())
    fresh = (sat.ante - base.ante, sat.succ - base.succ)
    agenda = {
        (side, f)
        for side in (ANTE, SUCC)
        for f in fresh[side]
        if u.movers[side] >> u.rank[f] & 1
    }
    # a closing move leaves the rest of the agenda unexamined
    assert set(seen) == agenda if not closed(sat) else set(seen) <= agenda


def test_closure_detection():
    assert closure_sets(set_sequent([BOT], [])) == (RuleId.BOTTOM_L, ())
    rule, principal = closure_sets(set_sequent([p, q], [q]))
    assert rule == RuleId.INIT and principal == (q,)
    assert closure_sets(set_sequent([Box(p)], [Box(p)])) == (RuleId.INIT, (Box(p),))
    assert closure_sets(set_sequent([p], [q])) is None
    # Init takes the least shared formula
    assert closure_sets(set_sequent([q, Box(p), p], [Box(p), p])) == (RuleId.INIT, (p,))


def test_budget_is_enforced_and_shared():
    big = parse_sequent("|- ([](p -> q) & O(p / r)) -> O(q / r)")
    with pytest.raises(BudgetExceeded):
        decide(big, budget=5)
    shared = Budget(10_000)
    decide(big, shared)
    used_once = shared.used
    decide(big, shared)
    assert shared.used == 2 * used_once


def test_search_is_deterministic():
    s = parse_sequent("|- [](q -> ~p) -> ~(O(p / r) & O(q / r))")
    assert prove(s).derivation == prove(s).derivation


@given(sequents)
@settings(max_examples=40)
def test_weakening_preserves_acceptance(seq):
    if decide(seq, budget=200_000):
        wider = Sequent(seq.ante + (Obl(p, q),), seq.succ + (Box(q),))
        assert decide(wider, budget=400_000)


@given(sequents)
@settings(max_examples=40)
def test_duplication_is_invisible(seq):
    doubled = Sequent(seq.ante + seq.ante, seq.succ + seq.succ)
    assert decide(seq, budget=200_000) == decide(doubled, budget=400_000)


def test_cut_conclusions_stay_derivable():
    rng = random.Random(11)
    found = 0
    while found < 30:
        cut = random_formula(rng, rng.randint(1, 3))
        left = random_sequent(rng, size=4)
        right = random_sequent(rng, size=4)
        first = Sequent(left.ante, left.succ + (cut,))
        second = Sequent((cut,) + right.ante, right.succ)
        if decide(first) and decide(second):
            merged = Sequent(left.ante + right.ante, left.succ + right.succ)
            assert decide(merged)
            found += 1


def test_assembled_derivations_use_no_structural_rules():
    res = prove(parse_sequent("[]p, [](p -> q) |- []q"))
    used = set(res.derivation.rules_used())
    assert RuleId.CUT not in used
    assert RuleId.WEAK_L not in used and RuleId.WEAK_R not in used
    assert RuleId.CON_L not in used and RuleId.CON_R not in used


def test_empty_sequent_is_rejected():
    assert not decide(Sequent((), ()))
    assert not decide((0, 0), memo=Memo(Universe(Sequent((), ()))))


class ReferenceSearch:
    """The search before relevance and before the failure rule, kept as a
    reference for tests only: every node saturated in full (the restart
    scan), every premiss of the first branching application searched, and
    every saturation move replayed into the derivation, whose multiset
    conclusions have each node's whole set sequent as support.  Its loop
    check runs over a history tuple copied into every call, and its memo
    records a failure only when no refusal beneath it pointed above its own
    history index (a low-water mark); a failure that leaned on an ancestor is
    searched again under each new history.  bmdl.search spends no more steps
    than it does."""

    def __init__(self, budget: int):
        self.budget = Budget(budget)
        self.memo: dict[SetSequent, bool] = {}
        self.mark = float("inf")

    def prove(self, goal: Sequent):
        """The derivation of goal, or None when it is underivable."""
        tree = self._node((to_set_sequent(goal),))
        return None if tree is None else self._assemble(tree, goal)

    def _node(self, history):
        start = history[-1]
        if self.memo.get(start) is False:
            return None
        outer, self.mark = self.mark, float("inf")
        tree = self._expand(history)
        mark, self.mark = self.mark, min(outer, self.mark)
        if tree is not None:
            self.memo[start] = self.memo[tree[1]] = True
        elif mark >= len(history) - 1:
            self.memo[start] = False
        return tree

    def _expand(self, history):
        steps, sat = full_saturation(history[-1])
        self.budget.spend(1 + len(steps))
        closure = reference_closure(sat)
        if closure is not None:
            return steps, sat, closure, None, ()
        h = history[:-1] + (sat,)
        branching = reference_two_premiss_applications(sat)[:1]
        for app in branching or reference_transitional_applications(sat):
            kids = []
            for prem in app.premisses:
                self.budget.spend()
                if app.rule in TRANSITIONAL:
                    witness = next((i for i in range(len(h) - 1, -1, -1) if contains(h[i], prem)), None)
                    if witness is not None:
                        self.mark = min(self.mark, witness)
                        break
                kid = self._node(h + (prem,))
                if kid is None:
                    break
                kids.append(kid)
            else:
                return steps, sat, None, app, tuple(kids)
        return None

    def _assemble(self, tree, target: Sequent) -> Derivation:
        steps, _, closure, app, kids = tree
        chain = []
        for step in steps:
            chain.append((target, step))
            target = premisses_for(step.rule, step.principal, target)[0]
        if closure is not None:
            d = Derivation(target, *closure)
        else:
            prems = premisses_for(app.rule, app.principal, target)
            d = Derivation(
                target,
                app.rule,
                app.principal,
                tuple(self._assemble(kid, prem) for kid, prem in zip(kids, prems)),
            )
        for conc, step in reversed(chain):
            d = Derivation(conc, step.rule, step.principal, (d,))
        return d


def _size(d: Derivation) -> int:
    return 1 + sum(_size(c) for c in d.children)


def _agrees_with_the_reference(goal: Sequent) -> None:
    """The search gives the reference's verdict, spending no more steps,
    and a checked derivation of goal with no more nodes than the
    reference's; goals that exhaust the reference's budget are passed."""
    ref = ReferenceSearch(100_000)
    try:
        want = ref.prove(goal)
    except BudgetExceeded:
        return
    res = prove(goal, Budget(100_000))
    assert res.accepted == (want is not None)
    assert res.steps_used <= ref.budget.used
    if res.accepted:
        assert res.derivation.conclusion == goal
        assert check_derivation(res.derivation)
        assert _size(res.derivation) <= _size(want)


@given(seed=st.integers(0, 2**32), kind=st.sampled_from(("sequent", "assumptions")))
@settings(max_examples=80)
def test_relevance_keeps_the_verdict_and_shrinks_the_derivation(seed, kind):
    rng = random.Random(seed)
    if kind == "sequent":
        goal = random_sequent(rng, size=rng.randint(3, 8), width=rng.choice((2, 3)))
    else:
        goal = reduction_sequent(random_assumptions(rng, rng.randint(1, 4), modal_depth=3))
    _agrees_with_the_reference(goal)


def test_relevance_keeps_the_verdict_on_generated_sequents():
    for s in generated_sequents(1414, 400):
        u = Universe(s)
        _agrees_with_the_reference(u.decode(u.encode(s)))


def test_a_first_premiss_proved_without_its_new_formula_settles_the_branch():
    # OrL on p | q comes first.  Its first premiss is proved by Four on
    # [](r -> r) alone, which never reads the p that premiss added, so that
    # proof proves the goal as it is and the premiss with q is never searched.
    goal = parse_sequent("p | q |- [](r -> r)")
    res = prove(goal)
    assert res.accepted and check_derivation(res.derivation)
    d = res.derivation
    assert [d.rule, d.children[0].rule, d.children[0].children[0].rule] == [
        RuleId.FOUR,
        RuleId.IMP_R,
        RuleId.INIT,
    ]
    assert _size(d) == 3
    # the search before relevance searched both premisses and branched
    ref = ReferenceSearch(1000)
    assert ref.prove(goal).rule == RuleId.OR_L
    assert (res.steps_used, ref.budget.used) == (6, 11)
    tree = proof_tree(goal)
    assert tree.application.rule == RuleId.FOUR and len(tree.children) == 1
    assert Universe(goal).decode(tree.uses) == parse_sequent("|- [](r -> r)")


def test_a_derivable_memo_entry_under_a_branching_premiss_blocks_the_use_check():
    # OrL on p | q branches p | q |- p; its first premiss is derivable, but
    # only through the p it adds.  decide settles the premiss from its memo
    # entry, its proof, whose uses hold p, and so goes on to the
    # underivable second premiss.
    goal = parse_sequent("p | q |- p")
    first = parse_sequent("p | q, p |- p")
    memo = Memo(Universe(goal))
    assert decide(first, memo=memo)
    entry = memo[memo.universe.encode(first)]
    assert proof_tree(first, memo=memo) is entry
    assert not decide(goal, memo=memo)
    assert not decide(goal)
