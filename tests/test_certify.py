"""The one "prove, or else build and certify" pipeline, and the memo of
exact verdicts its search shares with the countermodel oracle."""

from __future__ import annotations

import random

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from bmdl import countermodel
from bmdl.calculus import Universe
from bmdl.consistency import reduction_sequent
from bmdl.countermodel import build, certify, result_to_json
from bmdl.formula import to_set_sequent
from bmdl.gen import random_assumptions, random_sequent
from bmdl.parser import parse_sequent
from bmdl.search import Budget, BudgetExceeded, Memo, decide, proof_tree, prove

BUDGET = 200_000


class _NoMemo(Memo):
    """A memo that forgets every write, so a search given it uses none."""

    def __setitem__(self, key, value):
        pass


def _memo_free(ss) -> bool:
    """The verdict of a search of the set sequent ss with no memo at all,
    over the universe of ss alone."""
    return decide(ss, BUDGET, memo=_NoMemo(Universe(ss)))


def _decoded(memo: Memo) -> dict:
    """The memo's entries, their mask keys decoded to set sequents through
    its universe."""
    return {memo.universe.decode(key): verdict for key, verdict in memo.items()}


def _certify_keeping_memo(goal):
    """certify, and the memo its search and oracle filled."""
    memos = []

    def spy(*args, **kwargs):
        memos.append(kwargs["memo"])
        return prove(*args, **kwargs)

    countermodel.prove = spy
    try:
        cert = certify(goal, Budget(BUDGET))
    finally:
        countermodel.prove = prove
    (memo,) = memos
    return cert, memo


def _box_neg(n):
    """|- ([]~)^n p: underivable, and its search loops at every level."""
    return parse_sequent("|- " + "[]~" * n + "p")


def _nested_s43(n):
    """|- A_n, with A_0 = p0 and A_i = [](A_{i-1} -> []q_i) | []([]q_i -> A_{i-1}):
    underivable in S4, and a nest of loop-checked alternatives."""
    a = "p0"
    for i in range(1, n + 1):
        a = f"[]({a} -> []q{i}) | []([]q{i} -> {a})"
    return parse_sequent("|- " + a)


def _assert_memo_exact(goal, cert, memo):
    """Check every entry of the memo certify filled against a memo-free search."""
    entries = _decoded(memo)
    assert entries[to_set_sequent(goal)] == cert.search.accepted
    for ss, verdict in entries.items():
        assert _memo_free(ss) == verdict, ss


@given(seed=st.integers(0, 2**32), kind=st.sampled_from(("sequent", "assumptions", "deep")))
def test_every_memo_entry_is_the_exact_verdict(seed, kind):
    # random sequents seldom meet a loop check; assumption sets of modal
    # depth 3 and 4 meet it more often
    rng = random.Random(seed)
    if kind == "sequent":
        goal = random_sequent(rng, size=rng.randint(3, 8), width=rng.choice((2, 3)))
    else:
        depth = 2 if kind == "assumptions" else rng.randint(3, 4)
        goal = reduction_sequent(random_assumptions(rng, rng.randint(1, 4), modal_depth=depth))
    try:
        cert, memo = _certify_keeping_memo(goal)
    except BudgetExceeded:
        assume(False)
    _assert_memo_exact(goal, cert, memo)


# A consistency goal with a failure whose refusal sits two calls below it
# and points above it: a mark not passed up from the calls below records it.
_DEEP_REFUSAL = "[](r & s | O(q / q)), []~[][](false -> q), []q, [](O(r / r) -> s & p) |- false"


@pytest.mark.parametrize(
    "goal",
    [_box_neg(n) for n in range(1, 9)]
    + [_nested_s43(n) for n in range(1, 6)]
    + [parse_sequent(_DEEP_REFUSAL)],
    ids=[f"box-neg-{n}" for n in range(1, 9)]
    + [f"nested-s43-{n}" for n in range(1, 6)]
    + ["deep-refusal"],
)
def test_every_memo_entry_is_the_exact_verdict_on_loop_heavy_goals(goal):
    _assert_memo_exact(goal, *_certify_keeping_memo(goal))


def test_a_failure_behind_a_loop_check_refusal_is_not_recorded():
    # The goal is derivable by Four on [](p & q).  The search tries D1 first;
    # its premiss fails only because that premiss's own Four premiss,
    # []p, []q |- [](p & q), is contained in the goal and refused.  The
    # failed premiss is derivable all the same.
    goal = parse_sequent("[]p, []q, O(~[][](p & q) / s) |- [](p & q)")
    refused = to_set_sequent(parse_sequent("~[][](p & q), []p, []q |-"))
    memo = Memo(Universe(goal))
    assert proof_tree(goal, memo=memo) is not None
    assert _memo_free(refused)
    entries = _decoded(memo)
    assert entries.get(refused) is not False
    # the well-placed root and its accepted nodes are recorded
    assert entries[to_set_sequent(goal)] is True
    assert all(_memo_free(ss) == v for ss, v in entries.items())


def test_a_failure_whose_refusals_point_inside_its_own_suffix_is_recorded():
    # Below |- []~[]~[]~p, Four leads to []~[]~p |- ~p, whose only Four
    # premiss is that sequent again: refused against the node's own
    # saturation.  Cut down to the node itself, the history makes the same
    # refusal, so the failure is exact although a refusal caused it and the
    # call is not well placed.
    memo = Memo(Universe(_box_neg(3)))
    assert proof_tree(_box_neg(3), memo=memo) is None
    assert _decoded(memo)[to_set_sequent(parse_sequent("[]~[]~p |- ~p"))] is False
    memo = Memo(Universe(_box_neg(8)))
    assert proof_tree(_box_neg(8), memo=memo) is None
    assert len(memo) > 1  # more than the root
    assert all(_memo_free(ss) == v for ss, v in _decoded(memo).items())


# Steps a certificate of each hard family spends and worlds its countermodel
# has, measured at the bound's last change; a change may lower a bound,
# never raise it.
@pytest.mark.parametrize(
    "goal, bound, worlds",
    [
        (_box_neg(12), 3_450, 11),  # measured 3,114 steps, 11 worlds
        (_nested_s43(7), 5_987, 100),  # measured 5,987 steps, 100 worlds
    ],
    ids=["box-neg-12", "nested-s43-7"],
)
def test_a_hard_family_is_certified_within_its_bound(goal, bound, worlds):
    b = Budget()
    cert = certify(goal, b)
    assert not cert.search.accepted
    assert cert.countermodel is not None and cert.countermodel.certified
    assert b.used <= bound
    assert len(cert.countermodel.model.worlds) <= worlds


def test_certify_gives_the_certificates_of_prove_and_build():
    rng = random.Random(29)
    for _ in range(60):
        goal = random_sequent(rng, size=6, width=3)
        cert = certify(goal)
        alone = prove(goal)
        assert cert.search.accepted == alone.accepted
        assert cert.search.derivation == alone.derivation
        if alone.accepted:
            assert cert.countermodel is None
        else:
            assert result_to_json(cert.countermodel) == result_to_json(build(goal))


def test_the_oracle_does_not_decide_the_refuted_goal_again(monkeypatch):
    asked = []

    def spy(s, *args, **kwargs):
        asked.append(kwargs["memo"].universe.decode(s))
        return decide(s, *args, **kwargs)

    monkeypatch.setattr(countermodel, "decide", spy)
    goal = parse_sequent("O(p / q), O(q / r) |- O(p / r)")
    root = to_set_sequent(goal)
    build(goal)
    assert asked[0] == root  # a build on its own decides the goal first
    asked.clear()
    cert = certify(goal)
    assert cert.countermodel is not None and cert.countermodel.certified
    assert root not in asked


def test_certify_spends_no_more_than_prove_then_build():
    rng = random.Random(31)
    for _ in range(40):
        goal = reduction_sequent(random_assumptions(rng, rng.randint(1, 4)))
        b = Budget(BUDGET)
        cert = certify(goal, b)
        apart = Budget(BUDGET)
        if not prove(goal, apart).accepted:
            build(goal, apart)
        assert cert.search.steps_used <= b.used <= apart.used
