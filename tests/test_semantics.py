import json
import random

import hypothesis.strategies as st
import pytest
from hypothesis import given

from bmdl.formula import And, Atom, BOT, Bottom, Box, Imp, Neg, Obl, Or, Sequent
from bmdl.parser import parse_formula
from bmdl.calculus import ranks
from bmdl.semantics import (
    falsifies,
    holds,
    model_from_json,
    model_of_names,
    model_to_json,
    rt_closure,
    sequent_holds,
    truth_set,
    validate_frame,
)

from conftest import (
    CORPUS,
    NamedModel,
    formulas,
    reference_rt_closure,
    reference_truth_set,
    reference_validate_frame,
)

p, q = Atom("p"), Atom("q")


def _single(eta=(), val=frozenset()):
    return model_of_names(("w",), {("w", "w")}, {"w": tuple(eta)}, {"w": val})


def _chain():
    """Two worlds, the first sees the second, p only at the far one."""
    return model_of_names(
        ("a", "b"),
        {("a", "a"), ("a", "b"), ("b", "b")},
        {"a": (), "b": ()},
        {"a": frozenset(), "b": frozenset({"p"})},
    )


def test_validate_accepts_the_trivial_model():
    assert validate_frame(_single()) == []


@pytest.mark.parametrize(
    "model,kind",
    [
        (model_of_names((), (), {}, {}), "worlds"),
        (model_of_names(("w", "w"), {("w", "w")}, {}, {}), "worlds"),
        (model_of_names(("w",), {("w", "v")}, {}, {}), "reference"),
        (model_of_names(("w",), (), {}, {}), "reflexivity"),
        (
            model_of_names(
                ("a", "b", "c"),
                {("a", "a"), ("b", "b"), ("c", "c"), ("a", "b"), ("b", "c")},
                {},
                {},
            ),
            "transitivity",
        ),
        (_single(eta=[((), ())]), "empty-base"),
        (
            model_of_names(
                ("a", "b"),
                {("a", "a"), ("b", "b")},
                {"a": (({"b"}, {"a"}),)},
                {},
            ),
            "generator-range",
        ),
        (
            model_of_names(
                ("a", "b"),
                {("a", "a"), ("a", "b"), ("b", "b")},
                {"a": (({"a"}, {"a"}), ({"b"}, {"a"}))},
                {},
            ),
            "conflict",
        ),
    ],
)
def test_validate_reports_each_violation_kind(model, kind):
    kinds = {v.kind for v in validate_frame(model)}
    assert kind in kinds


def _transitivity_by_double_loop(acc: frozenset) -> list[str]:
    """The transitivity check as first written: every pair against every pair."""
    bad = []
    for u, v in sorted(acc):
        for v2, x in sorted(acc):
            if v2 == v and (u, x) not in acc:
                bad.append(f"transitivity: ({u}, {v}) and ({v}, {x}) but not ({u}, {x})")
    return bad


def test_transitivity_violations_match_the_double_loop():
    rng = random.Random(17)
    broken = 0
    for _ in range(300):
        worlds = tuple(f"w{i}" for i in range(rng.randint(1, 7)))
        pairs = frozenset(
            (u, v) for u in worlds for v in worlds if rng.random() < 0.3
        )
        acc = reference_rt_closure(worlds, pairs)
        if rng.random() < 0.6:  # knock pairs out of the closed relation
            acc = frozenset(pair for pair in acc if rng.random() < 0.8)
        m = model_of_names(worlds, acc, {}, {})
        got = [str(v) for v in validate_frame(m) if v.kind == "transitivity"]
        want = _transitivity_by_double_loop(acc)
        assert got == want
        broken += bool(want)
    assert broken > 50


def test_boolean_truth_clauses():
    m = _single(val=frozenset({"p"}))
    assert holds(m, "w", p)
    assert not holds(m, "w", q)
    assert not holds(m, "w", BOT)
    assert holds(m, "w", Neg(q))
    assert holds(m, "w", Or(q, p))
    assert holds(m, "w", Imp(q, BOT))
    assert not holds(m, "w", Imp(p, q))


def test_box_looks_at_all_successors():
    m = _chain()
    assert holds(m, "b", Box(p))
    assert not holds(m, "a", Box(p))
    assert holds(m, "a", Box(Imp(p, p)))
    assert truth_set(m, Box(p)) == {"b"}


def test_obligation_needs_matching_cond_set():
    # generator cond is exactly the worlds satisfying q restricted to R[w]
    m = model_of_names(
        ("a", "b"),
        {("a", "a"), ("a", "b"), ("b", "b")},
        {"a": (({"b"}, {"a", "b"}),), "b": ()},
        {"a": {"q"}, "b": {"p", "q"}},
    )
    assert holds(m, "a", Obl(p, q))
    # with r nowhere true the cond set would have to be empty
    assert not holds(m, "a", Obl(p, Atom("r")))
    # base must sit inside the body's truth set
    assert not holds(m, "a", Obl(Atom("r"), q))
    assert holds(m, "a", Obl(p, Neg(Atom("r"))))


def test_obligation_base_may_be_a_proper_subset():
    m = model_of_names(
        ("a", "b", "c"),
        {(u, v) for u in "abc" for v in "abc"},
        {"a": (({"b"}, set("abc")),), "b": (), "c": ()},
        {"b": {"p"}, "c": {"p"}},
    )
    assert holds(m, "a", Obl(p, Neg(BOT)))


def test_sequent_evaluation():
    m = _single(val=frozenset({"p"}))
    assert sequent_holds(m, "w", Sequent((p,), (p,)))
    assert falsifies(m, "w", Sequent((p,), (q,)))
    assert sequent_holds(m, "w", Sequent((q,), ()))


def test_holds_rejects_unknown_worlds():
    with pytest.raises(ValueError):
        holds(_single(), "nowhere", p)


def _random_model(rng: random.Random) -> NamedModel:
    """A preordered model of 1-5 worlds with random generators inside
    each R[w]; the frame conditions on generators are not enforced."""
    worlds = tuple(f"w{i}" for i in range(rng.randint(1, 5)))
    pairs = frozenset((rng.choice(worlds), rng.choice(worlds)) for _ in range(rng.randint(0, 6)))
    acc = reference_rt_closure(worlds, pairs)
    eta, val = {}, {}
    for w in worlds:
        reach = sorted(v for u, v in acc if u == w)
        eta[w] = tuple(
            (
                frozenset(rng.sample(reach, rng.randint(1, len(reach)))),
                frozenset(rng.sample(reach, rng.randint(0, len(reach)))),
            )
            for _ in range(rng.randint(0, 2))
        )
        val[w] = frozenset(a for a in "pqrs" if rng.random() < 0.5)
    return NamedModel(worlds, acc, eta, val)


def _holds_at(m: NamedModel, w: str, f) -> bool:
    """The truth clauses read world by world, with no truth sets."""
    match f:
        case Bottom():
            return False
        case Atom(name):
            return name in m.val[w]
        case Neg(g):
            return not _holds_at(m, w, g)
        case And(l, r):
            return _holds_at(m, w, l) and _holds_at(m, w, r)
        case Or(l, r):
            return _holds_at(m, w, l) or _holds_at(m, w, r)
        case Imp(l, r):
            return not _holds_at(m, w, l) or _holds_at(m, w, r)
        case Box(g):
            return all(_holds_at(m, v, g) for v in m.successors(w))
        case Obl(body, cond):
            reach = m.successors(w)
            tb = {v for v in reach if _holds_at(m, v, body)}
            tc = {v for v in reach if _holds_at(m, v, cond)}
            return any(base <= tb and cond == tc for base, cond in m.eta[w])


@given(st.lists(formulas, min_size=1, max_size=6), st.integers(0, 2**32))
def test_a_shared_cache_agrees_with_fresh_evaluation(fs, seed):
    """truth_set and holds through one cache, asked again in another order,
    give what a fresh cache and the world-by-world clauses give; an unknown
    world is refused even for a cached formula."""
    rng = random.Random(seed)
    named = _random_model(rng)
    m = named.model()
    cache: dict = {}
    for f in fs + rng.sample(fs, len(fs)):
        worlds = truth_set(m, f, cache)
        assert worlds == truth_set(m, f) == {w for w in m.worlds if _holds_at(named, w, f)}
        assert all(holds(m, w, f, cache) == (w in worlds) for w in m.worlds)
        with pytest.raises(ValueError):
            holds(m, "nowhere", f, cache)


def test_rt_closure():
    # a -> b -> c over bits 0, 1, 2
    assert rt_closure([0b010, 0b100, 0], 3) == [0b111, 0b110, 0b100]
    # a cycle back to an earlier bit, and a stray bit 2 that is not a world
    assert rt_closure([0b010, 0b101, 0], 2) == [0b111, 0b111, 0]


def test_rt_closure_matches_the_fixpoint():
    rng = random.Random(23)
    for _ in range(200):
        worlds = tuple(f"w{i}" for i in range(rng.randint(0, 7)))
        names = worlds + ("x",)  # pairs may mention a world outside the set
        pairs = frozenset(
            (u, v) for u in names for v in names if rng.random() < 0.2
        )
        m = model_of_names(worlds, pairs, {}, {})
        closed = rt_closure(m.succ, len(worlds))
        got = {(m.names[u], m.names[v]) for u, s in enumerate(closed) for v in ranks(s)}
        assert got == reference_rt_closure(worlds, pairs)


def test_serialization_round_trip():
    m = model_of_names(
        ("a", "b"),
        {("a", "a"), ("a", "b"), ("b", "b")},
        {"a": (({"b"}, {"a", "b"}),), "b": ()},
        {"a": (), "b": {"p"}},
    )
    assert model_from_json(model_to_json(m)) == m


def test_from_json_can_close_the_relation():
    data = {"worlds": ["a", "b"], "acc": [["a", "b"]]}
    with_closure = model_from_json(data, close_rt=True)
    assert validate_frame(with_closure) == []
    bare = model_from_json(data)
    assert any(v.kind == "reflexivity" for v in validate_frame(bare))


def test_malformed_model_data():
    with pytest.raises(ValueError):
        model_from_json({"acc": []})
    with pytest.raises(ValueError):
        model_from_json({"worlds": ["a"], "eta": {"a": [{"base": ["a"]}]}})


def test_corpus_model_facts():
    m = model_from_json(json.loads((CORPUS / "m0.json").read_text()))
    assert validate_frame(m) == []
    forbidden = parse_formula("O(~hrm / ~false)")
    assert truth_set(m, forbidden) == frozenset(m.worlds)
    assert holds(m, "w1", parse_formula("[]O(sy / dhe)"))
    assert holds(
        m,
        "w1",
        parse_formula(
            "[](he -> hrm) & [](sy -> he) & []O(~hrm / ~false) & []O(sy / dhe)"
        ),
    )
    assert not holds(m, "w1", parse_formula("hrm"))
    # the prescription and the prohibition really pull apart: following
    # the rite at w8 harms, refusing it at w1 does not
    assert holds(m, "w8", parse_formula("sy & hrm"))
    assert holds(m, "w1", parse_formula("~sy & ~hrm"))


def _model_with_faults(rng: random.Random) -> NamedModel:
    """A model drawn to hit every frame check: sometimes a duplicate world
    name, pairs knocked out of a closed relation or naming a world outside
    the model, entries for unknown worlds, generators outside R[w], with
    empty bases or with one cond set over disjoint bases."""
    worlds = tuple(rng.sample("abcde", rng.randint(1, 5)))
    if rng.random() < 0.05:
        worlds += (rng.choice(worlds),)
    unknown = ("x", "y")
    pairs = frozenset((rng.choice(worlds), rng.choice(worlds)) for _ in range(rng.randint(0, 8)))
    acc = reference_rt_closure(worlds, pairs)
    if rng.random() < 0.5:
        acc = frozenset((u, v) for u, v in sorted(acc) if rng.random() < (0.95 if u == v else 0.7))
    if rng.random() < 0.1:
        acc |= {(rng.choice(worlds + unknown[:1]), rng.choice(worlds + unknown))}
    eta, val = {}, {}
    for w in worlds + unknown:
        if w in unknown and rng.random() < 0.95:
            continue
        reach = sorted({v for u, v in acc if u == w})
        pool = reach + ([rng.choice(worlds + unknown)] if rng.random() < 0.2 else [])
        gens = []
        for _ in range(rng.randint(0, 3)):
            base = frozenset(rng.sample(pool, rng.randint(0 if rng.random() < 0.1 else min(1, len(pool)), len(pool))))
            cond = frozenset(rng.sample(pool, rng.randint(0, len(pool))))
            gens.append((base, cond))
            if pool and rng.random() < 0.2:  # same cond, maybe a disjoint base
                gens.append((frozenset(rng.sample(pool, 1)), cond))
        eta[w] = tuple(gens)
        val[w] = frozenset(a for a in "pqrs" if rng.random() < 0.5)
    return NamedModel(worlds, acc, eta, val)


@given(st.integers(0, 2**32), st.lists(formulas, min_size=1, max_size=4))
def test_frame_messages_and_truth_sets_match_the_set_based_reference(seed, fs):
    """validate_frame and truth_set over world bits give the messages, in
    their order, and the truth sets of the set-based reference, on valid
    and invalid models alike."""
    rng = random.Random(seed)
    for _ in range(5):
        named = _model_with_faults(rng)
        m = named.model()
        assert [str(v) for v in validate_frame(m)] == [str(v) for v in reference_validate_frame(named)]
        cache: dict = {}
        for f in fs:
            want = reference_truth_set(named, f)
            assert truth_set(m, f, cache) == truth_set(m, f) == want
            assert all(holds(m, w, f, cache) == (w in want) for w in m.worlds)


def test_the_fault_draws_reach_every_frame_check():
    rng = random.Random(5)
    kinds: dict = {}
    for _ in range(400):
        for v in validate_frame(_model_with_faults(rng).model()):
            kinds[v.message.split(" ")[0] if v.kind == "reference" else v.kind] = True
    assert set(kinds) >= {
        "worlds",
        "accessibility",
        "entry",
        "generator",
        "reflexivity",
        "transitivity",
        "generator-range",
        "empty-base",
        "conflict",
    }


def test_unknown_names_evaluate_as_worlds_outside_the_model():
    """A successor or a generator member outside the worlds is in no truth
    set: a box over it fails, and so does an obligation whose generator
    names it."""
    m = model_of_names(
        ("a",),
        {("a", "a"), ("a", "x")},
        {"a": (({"a"}, {"a", "y"}),)},
        {"a": {"p"}, "z": {"p"}},
    )
    assert truth_set(m, p) == {"a"}
    assert truth_set(m, Box(p)) == frozenset()
    assert truth_set(m, Obl(p, p)) == frozenset()
    assert truth_set(m, Neg(Box(p))) == {"a"}


# malformed models by JSON, and the messages validate_frame gave them when
# models were checked by names: the same violations, in the same order
PINNED_FRAME_MESSAGES = [
    (
        "unknown world in acc",
        {"worlds": ["a"], "acc": [["a", "a"], ["a", "x"]]},
        [
            "reference: accessibility pair (a, x) mentions an unknown world",
        ],
    ),
    (
        "unknown world in eta",
        {"worlds": ["a"], "acc": [["a", "a"]], "eta": {"z": [{"base": ["a"], "cond": ["a"]}]}},
        [
            "reference: entry for unknown world z",
        ],
    ),
    (
        "unknown world in val",
        {"worlds": ["a"], "acc": [["a", "a"]], "val": {"y": ["p"]}},
        [
            "reference: entry for unknown world y",
        ],
    ),
    (
        "unknown world in a generator",
        {"worlds": ["a"], "acc": [["a", "a"]], "eta": {"a": [{"base": ["a", "x"], "cond": ["a"]}]}},
        [
            "reference: generator at a mentions unknown worlds",
        ],
    ),
    (
        "duplicate worlds",
        {"worlds": ["a", "a"], "acc": [["a", "a"]]},
        [
            "worlds: duplicate world names",
        ],
    ),
    (
        "missing reflexive pair",
        {"worlds": ["a", "b"], "acc": [["a", "a"], ["a", "b"]]},
        [
            "reflexivity: missing (b, b)",
        ],
    ),
    (
        "transitivity gap",
        {"worlds": ["a", "b", "c"], "acc": [["a", "a"], ["b", "b"], ["c", "c"], ["a", "b"], ["b", "c"]]},
        [
            "transitivity: (a, b) and (b, c) but not (a, c)",
        ],
    ),
    (
        "empty base",
        {"worlds": ["a"], "acc": [["a", "a"]], "eta": {"a": [{"base": [], "cond": ["a"]}]}},
        [
            "empty-base: generator at a has an empty base",
        ],
    ),
    (
        "conflicting generators",
        {
            "worlds": ["a", "b"],
            "acc": [["a", "a"], ["a", "b"], ["b", "b"]],
            "eta": {"a": [{"base": ["a"], "cond": ["a", "b"]}, {"base": ["b"], "cond": ["a", "b"]}]},
        },
        [
            "conflict: generators at a share a cond set but have disjoint bases",
        ],
    ),
    (
        "every reference fault at once",
        {
            "worlds": ["b", "a", "b"],
            "acc": [["x", "a"], ["a", "y"], ["a", "a"], ["y", "x"]],
            "eta": {"z": [], "a": [{"base": ["q"], "cond": []}]},
            "val": {"w": [], "z": ["p"]},
        },
        [
            "worlds: duplicate world names",
            "reference: accessibility pair (a, y) mentions an unknown world",
            "reference: accessibility pair (x, a) mentions an unknown world",
            "reference: accessibility pair (y, x) mentions an unknown world",
            "reference: entry for unknown world w",
            "reference: entry for unknown world z",
        ],
    ),
    (
        "every frame fault at once",
        {
            "worlds": ["c", "b", "a"],
            "acc": [["a", "a"], ["c", "c"], ["a", "b"], ["b", "c"], ["c", "a"]],
            "eta": {
                "a": [{"base": [], "cond": ["a"]}, {"base": ["a", "c"], "cond": ["a"]}, {"base": ["b"], "cond": ["a"]}],
                "c": [{"base": ["v"], "cond": ["c"]}, {"base": ["c"], "cond": []}, {"base": ["a"], "cond": []}],
            },
        },
        [
            "reflexivity: missing (b, b)",
            "transitivity: (a, b) and (b, c) but not (a, c)",
            "transitivity: (b, c) and (c, a) but not (b, a)",
            "transitivity: (c, a) and (a, b) but not (c, b)",
            "reference: generator at c mentions unknown worlds",
            "conflict: generators at c share a cond set but have disjoint bases",
            "empty-base: generator at a has an empty base",
            "generator-range: generator at a reaches outside R[a]",
            "conflict: generators at a share a cond set but have disjoint bases",
            "conflict: generators at a share a cond set but have disjoint bases",
            "conflict: generators at a share a cond set but have disjoint bases",
        ],
    ),
]


@pytest.mark.parametrize(
    "case,data,messages", PINNED_FRAME_MESSAGES, ids=[case for case, *_ in PINNED_FRAME_MESSAGES]
)
def test_frame_messages_of_malformed_models_are_pinned(case, data, messages):
    assert [str(v) for v in validate_frame(model_from_json(data))] == messages
