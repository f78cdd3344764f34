"""The one "prove, or else build and certify" pipeline, and the memo of
exact verdicts its search shares with the countermodel oracle."""

from __future__ import annotations

import random

from hypothesis import assume, given
from hypothesis import strategies as st

from bmdl import countermodel
from bmdl.consistency import reduction_sequent
from bmdl.countermodel import build, certify, result_to_json
from bmdl.formula import to_set_sequent
from bmdl.gen import random_assumptions, random_sequent
from bmdl.parser import parse_sequent
from bmdl.search import Budget, BudgetExceeded, decide, proof_tree, prove

BUDGET = 200_000


class _NoMemo(dict):
    """A memo that forgets every write, so a search given it uses none."""

    def __setitem__(self, key, value):
        pass


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


@given(seed=st.integers(0, 2**32), from_assumptions=st.booleans())
def test_every_memo_entry_is_the_exact_verdict(seed, from_assumptions):
    rng = random.Random(seed)
    if from_assumptions:
        goal = reduction_sequent(random_assumptions(rng, rng.randint(1, 4)))
    else:
        goal = random_sequent(rng, size=rng.randint(3, 8), width=rng.choice((2, 3)))
    try:
        cert, memo = _certify_keeping_memo(goal)
    except BudgetExceeded:
        assume(False)
    assert memo[to_set_sequent(goal)] == cert.search.accepted
    for ss, verdict in memo.items():
        assert decide(ss, BUDGET, memo=_NoMemo()) == verdict, ss


def test_a_failure_behind_a_loop_check_refusal_is_not_recorded():
    # The goal is derivable by Four on [](p & q).  The search tries D1 first;
    # its premiss fails only because that premiss's own Four premiss,
    # []p, []q |- [](p & q), is contained in the goal and refused.  The
    # failed premiss is derivable all the same.
    goal = parse_sequent("[]p, []q, O(~[][](p & q) / s) |- [](p & q)")
    refused = to_set_sequent(parse_sequent("~[][](p & q), []p, []q |-"))
    memo: dict = {}
    assert proof_tree(goal, memo=memo) is not None
    assert decide(refused, memo=_NoMemo())
    assert memo.get(refused) is not False
    # the well-placed root and its accepted nodes are recorded
    assert memo[to_set_sequent(goal)] is True
    assert all(decide(ss, memo=_NoMemo()) == v for ss, v in memo.items())


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
        asked.append(s)
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
