import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bmdl import countermodel
from bmdl.calculus import Universe
from bmdl.consistency import reduction_sequent
from bmdl.countermodel import (
    CountermodelError,
    build,
    claim_of_json,
    left_obligation_conds,
    model_of_json,
    result_to_json,
    truth_lemma_audit,
)
from bmdl.formula import And, Box, Obl, Or, Sequent
from bmdl.gen import random_assumptions, random_formula, random_sequent
from bmdl.parser import parse_sequent, print_sequent
from bmdl.search import Budget, BudgetExceeded, decide
from bmdl.semantics import MModel, falsifies, model_from_json, validate_frame

from conftest import certifies, contains, decode_sets, to_set_sequent

UNDERIVABLE = [
    "|- false",
    "|- p",
    "p |- q",
    "|- O(p / q)",
    "O(p / q) |-",
    "O(a / ~d) |-",
    "p | q |-",
    "|- []p",
    "[]p |- []q",
    "O(p / q) |- O(p / r)",
    "O(p / q), O(q / r) |- O(p / r)",
    "|- O(p / q) -> O(p & q / q)",
    "[](p -> q) |- O(q / r) -> O(p / r)",
    "[]O(p / q) |- [](p -> q)",
]


@pytest.mark.parametrize("text", UNDERIVABLE)
def test_builds_are_certified(text):
    s = parse_sequent(text)
    res = build(s)
    assert res.root in res.model.worlds
    assert validate_frame(res.model) == []
    assert truth_lemma_audit(res.model, res.resolved) == []
    assert falsifies(res.model, res.root, s)


def test_derivable_goals_are_refused():
    with pytest.raises(ValueError):
        build(parse_sequent("|- p | ~p"))


def test_root_world_extends_the_goal():
    s = parse_sequent("O(p / q) |- O(p / r)")
    res = build(s)
    root = res.resolved[res.root]
    assert contains(to_set_sequent(root), to_set_sequent(s))


def test_every_world_sequent_is_underivable():
    res = build(parse_sequent("O(p / q), O(q / r) |- O(p / r)"))
    for ss in res.resolved.values():
        assert not decide(ss)


def test_condition_formulas_are_decided_at_every_world():
    s = parse_sequent("O(a / ~d) |-")
    res = build(s)
    cond = parse_sequent("~d |-").ante[0]
    for ss in res.resolved.values():
        assert cond in ss.ante or cond in ss.succ


def test_seeded_batch_stays_sound():
    rng = random.Random(5)
    built = 0
    while built < 60:
        s = random_sequent(rng, size=6)
        if decide(s):
            continue
        res = build(s)
        assert res.sequent == s and certifies(res)
        built += 1


def test_budget_exhaustion_propagates():
    with pytest.raises(BudgetExceeded):
        build(parse_sequent("O(p / q), O(q / r) |- O(p / r)"), budget=Budget(20))


def test_audit_flags_a_doctored_world_map():
    res = build(parse_sequent("p |- q"))
    wrong = {
        w: Sequent(ss.succ, ss.ante) for w, ss in res.resolved.items()
    }
    assert truth_lemma_audit(res.model, wrong)


def test_a_doctored_root_is_refused(monkeypatch):
    # the root's world sequent is emptied, so the audit checks nothing
    # there, and so is the valuation, so p |- q holds at the root: only the
    # root check can catch it
    finish = countermodel._Builder.finish

    def doctored(self):
        m = finish(self)
        self.resolved["h0"] = (0, 0)  # the masks of the empty sequent
        return MModel(m.worlds, m.acc, m.eta, {w: frozenset() for w in m.worlds})

    monkeypatch.setattr(countermodel._Builder, "finish", doctored)
    with pytest.raises(CountermodelError, match="still holds at the root"):
        build(parse_sequent("p |- q"))


@given(seed=st.integers(0, 2**32), kind=st.sampled_from(("sequent", "assumptions")))
def test_every_transitional_application_has_a_witness_among_the_successors(seed, kind):
    rng = random.Random(seed)
    if kind == "sequent":
        goal = random_sequent(rng, size=rng.randint(3, 8), width=rng.choice((2, 3)))
    else:
        goal = reduction_sequent(random_assumptions(rng, rng.randint(1, 4), modal_depth=rng.randint(2, 3)))
    try:
        res = build(goal, Budget(200_000))
    except (BudgetExceeded, ValueError):  # ValueError: the goal is derivable
        assume(False)
    u = Universe(goal)
    for w, ss in res.resolved.items():
        onward = [to_set_sequent(res.resolved[v]) for v in sorted(res.model.successors(w))]
        for app in u.transitional(*u.encode(ss)):
            premisses = [decode_sets(u, p) for p in app.premisses]
            assert any(contains(v, p) for p in premisses for v in onward), (w, app.rule)


def test_a_premiss_contained_in_an_existing_world_adds_no_world(monkeypatch):
    # the Four premiss of |- []p, p is |- p, which the root contains: the
    # root is its own witness, and the oracle is not asked about the premiss
    asked = []

    def spy(s, *args, **kwargs):
        asked.append(decode_sets(kwargs["memo"].universe, s))
        return decide(s, *args, **kwargs)

    monkeypatch.setattr(countermodel, "decide", spy)
    res = build(parse_sequent("|- []p, p"))
    assert res.model.worlds == ("h0",)
    assert res.model.acc == {("h0", "h0")}
    assert asked == [to_set_sequent(parse_sequent("|- []p, p"))]


def test_report_serialization():
    res = build(parse_sequent("|- O(p / q)"))
    data = result_to_json(res)
    assert data["certified"] is True
    assert data["labels"] == {w: print_sequent(ss) for w, ss in res.resolved.items()}
    assert data["goal"] == "|- O(p / q)"
    m = model_of_json(data)
    assert m == res.model
    assert model_of_json(data["model"]) == res.model
    assert model_from_json(data["model"]) == res.model


def _shared_goal(rng):
    """A goal in which one compound formula f occurs four times, and its
    labels as often: f | g, []f |- f & h, O(f / g)."""
    f = random_formula(rng, rng.randint(2, 4))
    g, h = random_formula(rng, rng.randint(1, 3)), random_formula(rng, rng.randint(1, 3))
    return Sequent((Or(f, g), Box(f)), (And(f, h), Obl(f, g)))


@given(seed=st.integers(0, 2**32), kind=st.sampled_from(("sequent", "assumptions", "shared")))
def test_a_report_reads_back_to_the_countermodel_build_made(seed, kind):
    # each label is printed as decoded, its sides duplicate-free and in rank
    # order, and claim_of_json parses the report back to the same record:
    # its sequent, model, root and labels
    rng = random.Random(seed)
    if kind == "sequent":
        goal = random_sequent(rng, size=rng.randint(3, 8), width=rng.choice((2, 3)))
    elif kind == "assumptions":
        goal = reduction_sequent(random_assumptions(rng, rng.randint(1, 4), modal_depth=rng.randint(2, 3)))
    else:
        goal = _shared_goal(rng)
    try:
        res = build(goal, Budget(200_000))
    except (BudgetExceeded, ValueError):  # ValueError: the goal is derivable
        assume(False)
    rank = Universe(goal).rank
    for ss in res.resolved.values():
        for side in ss:
            ranks = [rank[f] for f in side]
            assert ranks == sorted(set(ranks))
    assert claim_of_json(result_to_json(res), res.model) == res


def test_world_names_follow_creation_order():
    res = build(parse_sequent("O(p / q), O(q / r) |- O(p / r)"))
    assert list(res.model.worlds) == [f"h{i}" for i in range(len(res.model.worlds))]
    assert res.root == "h0"


def test_a_right_only_obligation_leaves_its_condition_unplaced():
    res = build(parse_sequent("|- O(p / q)"))
    data = result_to_json(res)
    assert data["labels"][res.root] == "|- O(p / q)"


def test_only_conditions_of_left_obligations_are_placed():
    res = build(parse_sequent("O(p / q) |- O(r / s)"))
    s, q = parse_sequent("s, q |-").ante
    assert len(res.model.worlds) == 3
    for ss in res.resolved.values():
        assert s not in ss.ante and s not in ss.succ
        assert q in ss.ante or q in ss.succ


def test_a_negated_obligation_is_on_the_left_and_places_its_condition():
    res = build(parse_sequent("|- ~O(p / q)"))
    q = parse_sequent("q |-").ante[0]
    for ss in res.resolved.values():
        assert q in ss.ante or q in ss.succ


def test_left_obligation_conds_follow_polarity():
    def conds(text):
        ss = parse_sequent(text)
        u = Universe(ss)
        return tuple(u.members(left_obligation_conds(u, u.encode(ss))))

    # O(a / b) is on the right, ~O(d / e) puts O(d / e) on the right, []O(f / g)
    # keeps it on the right; O(i / j), the condition of an obligation, goes
    # to both sides
    want = parse_sequent("j |-").ante
    assert conds("O(a / b) -> c, ~O(d / e) |- []O(f / g), O(h / O(i / j)) | k") == want
    assert conds("O(a / b) -> c |-") == ()
    assert conds("[]~a -> b, ~[]c |- d & []e") == ()  # no obligation at all
    assert conds("|- O(a / b) -> c") == parse_sequent("b |-").ante


@settings(max_examples=200)
@given(seed=st.integers(0, 2**32))
def test_every_left_obligation_has_its_condition_placed_on_its_successors(seed):
    # the invariant the audit of O(f/g) on the left of u reads: g sits on
    # one side of every world of R[u], so its occurrence set there is its
    # truth set
    rng = random.Random(seed)
    goal = random_sequent(rng, size=rng.randint(6, 10), width=rng.choice((2, 3)))
    try:
        res = build(goal, Budget(200_000))
    except (BudgetExceeded, ValueError):  # ValueError: the goal is derivable
        assume(False)
    for u, ss in res.resolved.items():
        for o in ss.ante:
            if isinstance(o, Obl):
                for v in res.model.successors(u):
                    assert o.cond in res.resolved[v].ante or o.cond in res.resolved[v].succ, (u, v, o)
