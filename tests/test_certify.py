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
from bmdl.gen import random_assumptions, random_sequent
from bmdl.kernel import check_derivation
from bmdl.parser import parse_sequent
from bmdl.search import Budget, BudgetExceeded, Memo, assemble_derivation, decide, proof_tree, prove

from conftest import decode_sets, to_set_sequent

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
    return {decode_sets(memo.universe, key): verdict for key, verdict in memo.items()}


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


def _fresh_root(ss) -> bool:
    """The verdict of a fresh root call on the set sequent ss, with a memo of
    its own: exact, and cheap where a memo-free search grows exponentially."""
    return decide(ss, BUDGET)


def _assert_memo_exact(goal, cert, memo, reference=_memo_free):
    """Check every entry of the memo certify filled against the verdict of
    reference, by default a memo-free search, and check that each derivable
    entry keeps a proof that the kernel accepts at its sequent."""
    entries = _decoded(memo)
    assert entries[to_set_sequent(goal)] == cert.search.accepted
    for ss, verdict in entries.items():
        assert reference(ss) == verdict, ss
    u = memo.universe
    assert set(memo.proofs) == {key for key, verdict in memo.items() if verdict}
    for key, node in memo.proofs.items():
        check_derivation(assemble_derivation(node, u.decode(key), u))


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
# and points above it: a low not folded up from the calls below records it.
_DEEP_REFUSAL = "[](r & s | O(q / q)), []~[][](false -> q), []q, [](O(r / r) -> s & p) |- false"
# A derivable consistency goal whose search records wrong failures when a
# call's low is not folded into its caller's (3 of its 85 memo entries).
_FOLDED_LOW = (
    "[](O(q / false) -> r & p), [](O(q / q) | O(r / p)), [](q & (q | false)), "
    "[]~O(p / []p), [][]O(r -> p / r), [](q -> [](p & q)) |- false"
)


# Up to these sizes a memo-free search checks every entry; beyond them it
# grows exponentially, and a fresh root call checks them.
@pytest.mark.parametrize(
    "goal, reference",
    [(_box_neg(n), _memo_free if n <= 8 else _fresh_root) for n in range(1, 21)]
    + [(_nested_s43(n), _memo_free if n <= 5 else _fresh_root) for n in range(1, 8)]
    + [(parse_sequent(_DEEP_REFUSAL), _memo_free), (parse_sequent(_FOLDED_LOW), _memo_free)],
    ids=[f"box-neg-{n}" for n in range(1, 21)]
    + [f"nested-s43-{n}" for n in range(1, 8)]
    + ["deep-refusal", "folded-low"],
)
def test_every_memo_entry_is_the_exact_verdict_on_loop_heavy_goals(goal, reference):
    _assert_memo_exact(goal, *_certify_keeping_memo(goal), reference)


def test_a_failure_behind_a_loop_check_refusal_is_not_recorded():
    # The goal is derivable by Four on [](p & q).  The search tries D1 first;
    # its premiss fails only because that premiss's own Four premiss,
    # []p, []q |- [](p & q), is contained in the goal and refused.  The
    # failed premiss is derivable all the same: its failure is provisional,
    # and dropped when the root succeeds.
    goal = parse_sequent("[]p, []q, O(~[][](p & q) / s) |- [](p & q)")
    refused = to_set_sequent(parse_sequent("~[][](p & q), []p, []q |-"))
    memo = Memo(Universe(goal))
    assert proof_tree(goal, memo=memo) is not None
    assert _memo_free(refused)
    entries = _decoded(memo)
    assert entries.get(refused) is not False
    # the root and its accepted nodes are recorded
    assert entries[to_set_sequent(goal)] is True
    assert all(_memo_free(ss) == v for ss, v in entries.items())


def test_a_provisional_failure_is_dropped_when_its_frame_succeeds():
    # The same D1 premiss fails provisionally beneath the first AndR
    # premiss, against that premiss's frame, which then succeeds by Four.
    # The second premiss, ... |- false, has only D1 and reaches the same
    # premiss again: kept past its frame's success, the failure would fail
    # the second premiss, and with it the derivable goal.
    goal = parse_sequent("[]p, []q, O(~[][](p & q) / s) |- [](p & q) & false")
    memo = Memo(Universe(goal))
    assert proof_tree(goal, memo=memo) is not None
    assert all(_memo_free(ss) == v for ss, v in _decoded(memo).items())


def test_a_failure_read_again_after_its_frame_failed_is_read_at_the_frame_low():
    # A sibling of a failed frame F re-reads a failure made beneath F, after
    # F failed against an ancestor that later succeeds.  With T0 = m | (d ->
    # d) and T1 = k | (d -> d), both derivable, the root |- a | []H | []T0
    # tries Four on []H first, and |- H at depth 1 tries its boxes in rank
    # order: F, then S, then T1.
    #   * |- F at depth 2, F = b | [][]T0 | []G: its premiss |- []T0 is
    #     refused against the root, and its premiss |- G at depth 3, with
    #     G = g | [][][]T0, fails because G's own premiss |- [][]T0 is
    #     refused against F.  So |- G fails against depth 2, and |- F
    #     against depth 0; the failure of |- G is lowered to depth 0.
    #   * |- S at depth 2, S = c | []G, reaches |- G.  It must read depth 0.
    #     Read at depth 2, which is now S's own frame, it would make the
    #     failure of |- S exact, and S is derivable through G.
    #   * |- T1 closes, so H and the root succeed.
    t0, t1 = "(m | (d -> d))", "(k | (d -> d))"
    g = f"(g | [][][]{t0})"
    f = f"(b | ([][]{t0} | []{g}))"
    s = f"(c | []{g})"
    h = f"(h | ([]{f} | ([]{s} | []{t1})))"
    goal = parse_sequent(f"|- a | ([]{h} | []{t0})")
    sibling = to_set_sequent(parse_sequent(f"|- {s}"))
    cert, memo = _certify_keeping_memo(goal)
    assert cert.search.accepted
    assert _memo_free(sibling)
    assert _decoded(memo).get(sibling) is not False
    _assert_memo_exact(goal, cert, memo)


def test_a_failure_whose_refusals_point_inside_its_own_suffix_is_recorded():
    # Below |- []~[]~[]~p, Four leads to []~[]~p |- ~p, whose only Four
    # premiss is that sequent again: refused against the call's own
    # saturation, the suffix of the stack from its own frame on.  Its low
    # is its own depth, so the failure is exact although a refusal caused it.
    memo = Memo(Universe(_box_neg(3)))
    assert proof_tree(_box_neg(3), memo=memo) is None
    assert _decoded(memo)[to_set_sequent(parse_sequent("[]~[]~p |- ~p"))] is False
    memo = Memo(Universe(_box_neg(8)))
    assert proof_tree(_box_neg(8), memo=memo) is None
    assert len(memo) > 1  # more than the root
    assert all(_memo_free(ss) == v for ss, v in _decoded(memo).items())


# Steps a certificate of each hard family spends and worlds its countermodel
# has, measured at the bound's last change; a change may lower a bound,
# never raise it.  box-neg-20 and nested-s43-10 are certified within the
# default budget.
@pytest.mark.parametrize(
    "goal, bound, worlds",
    [
        (_box_neg(12), 232, 11),  # measured 232 steps, 11 worlds
        (_nested_s43(7), 3_458, 100),  # measured 3,458 steps, 100 worlds
        (_box_neg(20), 1_042, 19),  # measured 1,042 steps, 19 worlds
        (_nested_s43(10), 38_406, 430),  # measured 38,406 steps, 430 worlds
    ],
    ids=["box-neg-12", "nested-s43-7", "box-neg-20", "nested-s43-10"],
)
def test_a_hard_family_is_certified_within_its_bound(goal, bound, worlds):
    b = Budget()
    cert = certify(goal, b)
    assert not cert.search.accepted
    assert cert.countermodel is not None and cert.countermodel.certified
    assert b.used <= bound
    assert len(cert.countermodel.model.worlds) <= worlds


# Random goals that exhausted the default budget while no search reused a
# proof it had found, printed: goals 750 at size 40, and 1042 and 2293 at
# size 80, counted from 0, of the sequence that
# gen.random_sequent(random.Random(314159), size, width=3) draws.  Each is
# (goal, derivable, bound), and each bound is twice the steps its
# certificate measured when proofs were first reused: 14,790, 52,684 and
# 2,806.
_HARD_RANDOM = [
    pytest.param(
        "[](O(~(p | p) | (s | p | s) / p & []p) -> []false) & O([]O(s / s -> p) / q & false), O([](~((s "
        "-> r) & p) | r & p) / q & true & ~p), [](O(s / ~p) | O(r -> q / q | r)) |- ~[]O(q | [](q -> s) / "
        "O(r / r) -> []s), O([][]r -> O([]r -> false / r) / O(false / s)) | ([]~~O(s & O(r / q) / []((r "
        "-> q) | ~q)) | q), O((q | false -> q) | p -> [](~r -> ~~[](r | q)) & (q -> r) / O([]s / p -> q) "
        "| (O(q / q) | ([]r | O(r / [](r -> p)))))",
        False,
        29_580,
        id="size-40-750",
    ),
    pytest.param(
        "[]((p | s | (((q -> p | r) -> O(~[](s & ~(s -> s | (r -> p) | r & s)) / s)) | O(r / O(r & p | r "
        "/ s -> s)))) & (((O(q / s) -> p | q) | ~q) & []([](r | q) & s & O(r / p)) & O(O(q / p | s) -> p "
        "/ q | q))) | ~s & (s & (p | false)), []((false | []O(~q -> p / false & r)) & ((s -> r -> q) & "
        "((q | (p | r)) & (O(q / false) | O(s / s) & [][]~((q | p) & p & (s -> q)))) -> O(p -> s / s & "
        "r)) & O(O(false -> p / r) / s & []p & (q | r))) |- O((q | O(s / s) | (p -> false) -> q | p) -> "
        "[](q & [](false & q)) -> ~~q / [](r & q)) | (false | q & r)",
        False,
        105_368,
        id="size-80-1042",
    ),
    pytest.param(
        "((s -> s) | r & r & s & ~~~[]r) & r, []~((O(s / q & s) | ((r -> s) | O(p / q | s)) | q) & (O(s "
        "-> q / q | q) & (((s -> q) -> O(false / r)) | O(r / r))) | [](r -> s | r) | ([](r -> q -> s) | "
        "[][](p -> r) -> O(q | [](s -> p) -> []~~(s -> p) / O(r / q) | O(p / p)))) |- []O(O(s & r / (p -> "
        "r) -> p) / O(p -> s / (false -> q | r) & (q & p & p | p))) -> ((q -> q) -> O(s & r / q & r)) -> "
        "~O(q | p -> O(s / q) / [][](r -> s)) -> O([]((s | q) & O(s / p)) / s & r | q | O(O(r | r / p) / "
        "s)), [][]([](r | false -> s | (s | p | p & r)) -> O(p / r) | ([](s -> ~(r & q | (q -> q) & (q | "
        "r)) -> p) | ([](p -> p) -> s & r -> r)) -> [](r | q | (p -> r) | ~r & (q & q -> true) | ~(r | q "
        "-> p | (r -> false))) -> []p), O(~q -> [](([]false -> s) | []((false -> s) | (false | q))) / "
        "[]((O(~s / r) | O(s / r)) & O(r & s / r & s | ~((q | q) & r))))",
        True,
        5_612,
        id="size-80-2293",
    ),
]


@pytest.mark.parametrize("goal, derivable, bound", _HARD_RANDOM)
def test_a_hard_random_goal_is_certified_within_its_bound(goal, derivable, bound):
    goal = parse_sequent(goal)
    b = Budget()
    cert = certify(goal, b)
    assert cert.search.accepted == derivable
    if derivable:
        assert cert.search.derivation.conclusion == goal
        check_derivation(cert.search.derivation)
    else:
        assert cert.countermodel is not None and cert.countermodel.certified
    assert b.used <= bound


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
        asked.append(decode_sets(kwargs["memo"].universe, s))
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
