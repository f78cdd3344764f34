import json
import random
from collections import Counter

import hypothesis.strategies as st
import pytest
from hypothesis import given

from bmdl.calculus import RuleId, Universe
from bmdl import gen
from bmdl.consistency import FALSUM_SEQUENT, assumption_sequents, check_consistency, discharge, reduction_sequent
from bmdl.corpus import read_sequent_file
from bmdl.formula import And, Atom, BOT, Box, Imp, Neg, Obl, Or, Sequent
from bmdl.kernel import (
    Derivation,
    DerivationError,
    check_derivation,
    derivation_from_json,
    derivation_to_json,
    premisses_for,
    same_sequent,
)
from bmdl.parser import parse_problem, parse_sequent, print_formula, print_sequent
from bmdl.search import prove

from conftest import CORPUS, formula_tuples, formulas, reference_check_derivation, sequents
from test_parser import reference_print, reference_print_sequent

p, q, r = Atom("p"), Atom("q"), Atom("r")


def test_premisses_for_splits_conjunction_left():
    c = Sequent((And(p, q), r), (q,))
    (prem,) = premisses_for(RuleId.AND_L, (And(p, q),), c)
    assert prem == Sequent((And(p, q), r, p, q), (q,))


def test_premisses_for_transitional_rules_strip_to_boxes():
    c = Sequent((Box(p), q, Obl(q, r)), (Box(r),))
    (prem,) = premisses_for(RuleId.FOUR, (Box(r),), c)
    assert prem == Sequent((Box(p),), (r,))
    (prem,) = premisses_for(RuleId.D1, (Obl(q, r),), c)
    assert prem == Sequent((Box(p), q), ())


def test_premisses_for_rejects_missing_principal():
    with pytest.raises(ValueError):
        premisses_for(RuleId.AND_L, (And(p, q),), Sequent((p,), (q,)))
    with pytest.raises(ValueError):
        premisses_for(RuleId.AND_L, (p,), Sequent((p,), (q,)))
    with pytest.raises(ValueError):
        premisses_for(RuleId.INIT, (), Sequent((p,), (p,)))


def test_duplicate_principals_need_two_copies():
    c = Sequent((Obl(p, q),), ())
    with pytest.raises(ValueError):
        premisses_for(RuleId.D2, (Obl(p, q), Obl(p, q)), c)
    c2 = Sequent((Obl(p, q), Obl(p, q)), ())
    prems = premisses_for(RuleId.D2, (Obl(p, q), Obl(p, q)), c2)
    assert prems[0] == Sequent((p, p), ())


def test_axiom_derivations_check():
    res = prove(parse_sequent("|- ([](p -> q) & O(p / r)) -> O(q / r)"))
    assert check_derivation(res.derivation)


def test_checker_localizes_the_offending_node():
    good = prove(parse_sequent("p & q |- q & p")).derivation
    assert check_derivation(good)

    def tamper(d: Derivation, path):
        if not path:
            return Derivation(d.conclusion, d.rule, d.principal, ())
        i = path[0]
        kids = list(d.children)
        kids[i] = tamper(kids[i], path[1:])
        return Derivation(d.conclusion, d.rule, d.principal, tuple(kids))

    bad = tamper(good, (0,))
    with pytest.raises(DerivationError) as err:
        check_derivation(bad)
    assert err.value.path == (0,)


def test_init_needs_a_shared_formula():
    with pytest.raises(DerivationError):
        check_derivation(Derivation(Sequent((p,), (q,)), RuleId.INIT))
    assert check_derivation(Derivation(Sequent((Box(p),), (Box(p),)), RuleId.INIT))


def test_bottom_left_needs_bottom():
    with pytest.raises(DerivationError):
        check_derivation(Derivation(Sequent((p,), ()), RuleId.BOTTOM_L))
    assert check_derivation(Derivation(Sequent((BOT, p), (q,)), RuleId.BOTTOM_L))


def test_multiset_exactness_of_logical_premisses():
    c = Sequent((And(p, p),), ())
    # the premiss must carry both added copies of p
    short = Derivation(
        c,
        RuleId.AND_L,
        (And(p, p),),
        (Derivation(Sequent((And(p, p), p), ()), RuleId.BOTTOM_L),),
    )
    with pytest.raises(DerivationError):
        check_derivation(short)


def test_weakening_rules():
    inner = Derivation(Sequent((p,), (p,)), RuleId.INIT)
    grown = Derivation(Sequent((p, q), (p,)), RuleId.WEAK_L, (), (inner,))
    assert check_derivation(grown)
    with pytest.raises(DerivationError):
        check_derivation(Derivation(Sequent((p,), (p, q)), RuleId.WEAK_L, (), (inner,)))
    grown_r = Derivation(Sequent((p,), (p, q)), RuleId.WEAK_R, (), (inner,))
    assert check_derivation(grown_r)


def test_contraction_rules_count_copies():
    inner = Derivation(Sequent((p, p), (p,)), RuleId.INIT)
    contracted = Derivation(Sequent((p,), (p,)), RuleId.CON_L, (p,), (inner,))
    assert check_derivation(contracted)
    with pytest.raises(DerivationError):
        check_derivation(Derivation(Sequent((q,), (p,)), RuleId.CON_L, (q,), (inner,)))


def test_cut_conclusion_must_split():
    left = Derivation(Sequent((p,), (q, p)), RuleId.INIT)
    right = Derivation(Sequent((p, r), (r,)), RuleId.INIT)
    cut = Derivation(Sequent((p, r), (q, r)), RuleId.CUT, (p,), (left, right))
    assert check_derivation(cut)
    bad = Derivation(Sequent((p, r), (q,)), RuleId.CUT, (p,), (left, right))
    with pytest.raises(DerivationError):
        check_derivation(bad)


def test_assumption_leaves_must_be_declared():
    leaf = Derivation(Sequent((), (p,)), RuleId.ASSUMPTION)
    with pytest.raises(DerivationError):
        check_derivation(leaf)
    assert check_derivation(leaf, [Sequent((), (p,))])
    # multiset equality, order of sides is free
    two = Derivation(Sequent((q, p), (r,)), RuleId.ASSUMPTION)
    assert check_derivation(two, [Sequent((p, q), (r,))])
    with pytest.raises(DerivationError):
        check_derivation(two, [Sequent((p, p, q), (r,))])


def test_arity_is_checked():
    with pytest.raises(DerivationError) as err:
        check_derivation(
            Derivation(Sequent((p,), (p,)), RuleId.INIT, (), (Derivation(Sequent((p,), (p,)), RuleId.INIT),))
        )
    assert "0" in str(err.value)


def test_rules_used_counts_the_whole_tree():
    d = prove(parse_sequent("|- ~O(false / q)")).derivation
    used = d.rules_used()
    assert used[RuleId.NEG_R] == 1
    assert used[RuleId.D1] == 1
    assert used[RuleId.BOTTOM_L] == 1


def test_serialization_round_trip():
    d = prove(parse_sequent("|- [](q -> ~p) -> ~(O(p / r) & O(q / r))")).derivation
    data = derivation_to_json(d)
    assert derivation_from_json(data) == d


def test_deserialization_rejects_unknown_rules():
    with pytest.raises(ValueError):
        derivation_from_json({"rule": "Guess", "conclusion": "|- p", "children": []})


@pytest.mark.parametrize(
    "data, where",
    [
        ([], "root"),
        ({"rule": "Init", "principal": ["p"]}, "root"),
        ({"rule": "Init", "conclusion": "p |- p", "principal": "p"}, "root"),
        ({"rule": "WeakL", "conclusion": "p |- p", "children": {}}, "root"),
        ({"rule": "WeakL", "conclusion": "p, q |- p", "children": [{"rule": "Init"}]}, "node 0"),
        ({"rule": "WeakL", "conclusion": "p, q |- p", "children": ["p |- p"]}, "node 0"),
    ],
)
def test_deserialization_rejects_malformed_shapes(data, where):
    with pytest.raises(DerivationError, match=f"^{where}: "):
        derivation_from_json(data)


@given(formulas)
def test_negation_premisses_match_on_both_sides(f):
    c_l = Sequent((Neg(f),), ())
    (prem,) = premisses_for(RuleId.NEG_L, (Neg(f),), c_l)
    assert prem == Sequent((Neg(f),), (f,))
    c_r = Sequent((), (Neg(f),))
    (prem,) = premisses_for(RuleId.NEG_R, (Neg(f),), c_r)
    assert prem == Sequent((f,), (Neg(f),))


@st.composite
def sequent_pairs(draw):
    """A sequent and a second one made from it by permuting each side, and
    sometimes by repeating or dropping a formula on one side."""
    a = draw(sequents)
    sides = []
    for side in (a.ante, a.succ):
        side = list(draw(st.permutations(side)))
        edit = draw(st.sampled_from(["keep", "repeat", "drop"]))
        if side and edit == "repeat":
            side.append(draw(st.sampled_from(side)))
        elif side and edit == "drop":
            side.pop(draw(st.integers(0, len(side) - 1)))
        sides.append(tuple(side))
    return a, Sequent(*sides)


@given(sequent_pairs())
def test_same_is_multiset_equality(pair):
    a, b = pair
    by_counts = (Counter(a.ante), Counter(a.succ)) == (Counter(b.ante), Counter(b.succ))
    assert same_sequent(a, b) == same_sequent(b, a) == by_counts
    assert same_sequent(a, a)


def _refusal(check, d, assumed):
    """None when check accepts d, else the path and reason it refuses with."""
    try:
        check(d, assumed)
    except DerivationError as e:
        return e.path, e.reason
    return None


def _nodes_with_paths(d, path=()):
    yield path, d
    for i, child in enumerate(d.children):
        yield from _nodes_with_paths(child, path + (i,))


def _replaced(d, path, conclusion):
    if not path:
        return Derivation(conclusion, d.rule, d.principal, d.children)
    kids = list(d.children)
    kids[path[0]] = _replaced(kids[path[0]], path[1:], conclusion)
    return Derivation(d.conclusion, d.rule, d.principal, tuple(kids))


@st.composite
def mutated_witnesses(draw):
    """A discharge witness over an Init leaf, with one Cut or Assumption
    conclusion reordered, given a repeated formula or missing one, and the
    assumption sequents it may use."""
    assumptions = tuple(draw(st.lists(formulas, min_size=1, max_size=3)))
    extra = draw(formula_tuples)
    goal = Sequent(extra + (p,), (p,) + draw(formula_tuples))
    reduction = Derivation(reduction_sequent(assumptions, goal), RuleId.INIT, (p,))
    witness = discharge(reduction, assumptions, goal)
    targets = [(path, n) for path, n in _nodes_with_paths(witness) if n.rule in (RuleId.CUT, RuleId.ASSUMPTION)]
    path, node = draw(st.sampled_from(targets))
    sides = [list(node.conclusion.ante), list(node.conclusion.succ)]
    side = draw(st.sampled_from([i for i in (0, 1) if sides[i]]))
    edit = draw(st.sampled_from(["reorder", "repeat", "drop"]))
    if edit == "reorder":
        sides[side] = list(draw(st.permutations(sides[side])))
    elif edit == "repeat":
        sides[side].insert(draw(st.integers(0, len(sides[side]))), draw(st.sampled_from(sides[side])))
    else:
        sides[side].pop(draw(st.integers(0, len(sides[side]) - 1)))
    mutated = _replaced(witness, path, Sequent(tuple(sides[0]), tuple(sides[1])))
    return mutated, assumption_sequents(assumptions)


@given(mutated_witnesses())
def test_mutated_discharge_witnesses_match_the_counter_reference(drawn):
    """The kernel, tuple equality first, accepts or refuses a mutated
    witness exactly as the Counter-first reference does, at the same node
    with the same message."""
    d, assumed = drawn
    assert _refusal(check_derivation, d, assumed) == _refusal(reference_check_derivation, d, assumed)


def test_unmutated_discharge_witnesses_check():
    assumptions = (p, Box(q), Obl(p, q), p)
    goal = Sequent((r, p), (p,))
    witness = discharge(Derivation(reduction_sequent(assumptions, goal), RuleId.INIT, (p,)), assumptions, goal)
    assert check_derivation(witness, assumption_sequents(assumptions))
    assert reference_check_derivation(witness, assumption_sequents(assumptions))


def _cut(conclusion, left=Sequent((r,), (r, p)), right=Sequent((p, p, q), (q,))):
    return Derivation(
        conclusion,
        RuleId.CUT,
        (p,),
        (Derivation(left, RuleId.INIT), Derivation(right, RuleId.INIT)),
    )


def test_a_cut_conclusion_in_another_order_is_accepted():
    # expected: r, p, q |- r, q; the ones below differ only in order
    assert check_derivation(_cut(Sequent((r, p, q), (r, q))))
    assert check_derivation(_cut(Sequent((q, r, p), (q, r))))


@pytest.mark.parametrize(
    "conclusion",
    [
        Sequent((r, p, q, p), (r, q)),
        Sequent((r, q), (r, q)),
        Sequent((r, p, q), (r, q, q)),
        Sequent((r, p, q), (r,)),
    ],
    ids=["one-copy-too-many-left", "one-copy-too-few-left", "one-copy-too-many-right", "one-copy-too-few-right"],
)
def test_a_cut_conclusion_off_by_one_copy_is_refused(conclusion):
    with pytest.raises(DerivationError, match="^root: Cut conclusion does not split into its premisses$"):
        check_derivation(_cut(conclusion))


def test_each_missing_cut_formula_has_its_own_message():
    with pytest.raises(DerivationError, match="^root: cut formula missing from the left premiss succedent$"):
        check_derivation(_cut(Sequent((r, p, q), (r, q)), left=Sequent((r,), (r,))))
    with pytest.raises(DerivationError, match="^root: cut formula missing from the right premiss antecedent$"):
        check_derivation(_cut(Sequent((r, p, q), (r, q)), right=Sequent((q,), (q,))))


def test_an_assumption_leaf_equal_only_as_a_multiset_is_accepted():
    leaf = Derivation(Sequent((q, p, q), (r, p)), RuleId.ASSUMPTION)
    assumed = [Sequent((p,), ()), Sequent((q, q, p), (p, r))]
    assert leaf.conclusion not in assumed
    assert check_derivation(leaf, assumed)
    with pytest.raises(DerivationError, match="is not an assumption$"):
        check_derivation(leaf, [Sequent((q, p), (r, p))])


def test_d2_with_one_obligation_as_both_principals_needs_two_copies():
    o = Obl(p, q)
    prem = (
        Derivation(Sequent((p, p), ()), RuleId.BOTTOM_L),
        Derivation(Sequent((q,), (q,)), RuleId.INIT),
        Derivation(Sequent((q,), (q,)), RuleId.INIT),
    )
    one = Derivation(Sequent((o, r), ()), RuleId.D2, (o, o), prem)
    with pytest.raises(DerivationError, match=r"^root: principal O\(p / q\) not in antecedent$"):
        check_derivation(one)
    two = Derivation(Sequent((o, r, o), ()), RuleId.D2, (o, o), prem)
    with pytest.raises(DerivationError, match="^node 0: BottomL needs false"):
        check_derivation(two)


def reference_derivation_to_json(d: Derivation) -> dict:
    """derivation_to_json as it was before formula nodes kept their text and
    derivations were tuples: nested objects built without recursion, each
    rule named by its RuleId value, formulas printed by the reference
    printer."""
    root: dict = {}
    todo = [(d, root)]
    while todo:
        node, out = todo.pop()
        kids: list[dict] = [{} for _ in node.children]
        out["rule"] = node.rule.value
        out["principal"] = [reference_print(f) for f in node.principal]
        out["conclusion"] = reference_print_sequent(node.conclusion)
        out["children"] = kids
        todo.extend(zip(node.children, kids))
    return root


def _as_json_bytes(tree: dict) -> bytes:
    return json.dumps(tree, ensure_ascii=False).encode()


def _assert_json_as_the_reference(d: Derivation) -> None:
    """The derivation's JSON equals the reference's, byte for byte, on the
    first print of its formulas and again once their texts are kept."""
    want = _as_json_bytes(reference_derivation_to_json(d))
    assert _as_json_bytes(derivation_to_json(d)) == want
    assert _as_json_bytes(derivation_to_json(d)) == want


def test_derivation_json_of_random_derivable_goals_is_the_reference_json():
    """Goals read as the CLI reads them, the goal printed first as a report
    prints it, then its derivation, with assumptions discharged or not."""
    rng = random.Random(271828)
    found = 0
    while found < 40:
        s = gen.random_sequent(rng, size=rng.randint(3, 8), width=rng.randint(2, 3))
        goal = parse_sequent(print_sequent(s))
        assert print_sequent(goal) == reference_print_sequent(goal)
        res = prove(goal, 100_000)
        if not res.accepted:
            continue
        found += 1
        check_derivation(res.derivation)
        _assert_json_as_the_reference(res.derivation)
        if goal.ante:  # read the first antecedent formula as an assumption
            assumptions, rest = goal.ante[:1], Sequent(goal.ante[1:], goal.succ)
            reduced = prove(reduction_sequent(assumptions, rest), 100_000)
            if reduced.accepted:
                d = discharge(reduced.derivation, assumptions, rest)
                check_derivation(d, assumption_sequents(assumptions))
                _assert_json_as_the_reference(d)


def _substituted(f, sub):
    """f with each atom replaced by its substituent, built apart from the
    parser."""
    match f:
        case Atom(name):
            return sub.get(name, f)
        case Neg(g) | Box(g):
            return type(f)(_substituted(g, sub))
        case And(l, r) | Or(l, r) | Imp(l, r) | Obl(l, r):
            return type(f)(_substituted(l, sub), _substituted(r, sub))
    return f


def test_derivation_json_of_schema_instances_is_the_reference_json():
    """Substitution instances of the corpus's axiom schemas, built outside
    the parser, as the benchmark's schema-derivable pool draws them."""
    schemas = [
        read_sequent_file(CORPUS / e["file"])
        for e in json.loads((CORPUS / "manifest.json").read_text())["entries"]
        if e["kind"] == "sequent" and e.get("basis") == "axiom-schema"
    ]
    assert len(schemas) == 6
    rng = random.Random(314159)
    for i in range(36):
        schema = schemas[i % len(schemas)]
        names = sorted({g.name for g in Universe(schema).formulas if isinstance(g, Atom)})
        sub = {a: gen.random_formula(rng, rng.randint(1, 4)) for a in names}
        goal = Sequent(
            tuple(_substituted(f, sub) for f in schema.ante),
            tuple(_substituted(f, sub) for f in schema.succ),
        )
        res = prove(goal, 100_000)
        assert res.accepted
        check_derivation(res.derivation)
        _assert_json_as_the_reference(res.derivation)


def _inconsistent_sets() -> list[tuple]:
    """Inconsistent assumption sets from the corpus, and random ones, half
    of them read as the CLI reads a problem file."""
    sets = [parse_problem((CORPUS / f).read_text()).assumptions for f in ("clash.mdl", "conflicting_obligations.mdl")]
    rng = random.Random(161803)
    while len(sets) < 30:
        drawn = gen.random_assumptions(rng, rng.randint(1, 4), size=4, modal_depth=2)
        if rng.random() < 0.5:  # read as the CLI reads a problem file
            drawn = parse_problem("".join(f"assume {print_formula(a)}\n" for a in drawn)).assumptions
        res = check_consistency(drawn, 100_000)
        if not res.consistent:
            sets.append(drawn)
    return sets


def test_derivation_json_of_discharged_consistency_witnesses_is_the_reference_json():
    """Inconsistency witnesses, whose Cut and Four scaffolding holds the
    reduction's own boxed assumptions, filled when reduction_sequent made
    them: from the corpus and from random assumption sets."""
    for assumptions in _inconsistent_sets():
        res = check_consistency(assumptions, 100_000)
        assert not res.consistent
        check_derivation(res.witness, assumption_sequents(assumptions))
        _assert_json_as_the_reference(res.witness)


def _reference_discharge(reduction, assumptions, goal):
    """discharge with every box a new node built by the plain constructor."""
    d, rest = reduction, list(assumptions)
    while rest:
        a = rest.pop(0)
        leaf = Derivation(Sequent((), (a,)), RuleId.ASSUMPTION)
        boxed = Derivation(Sequent((), (Box(a),)), RuleId.FOUR, (Box(a),), (leaf,))
        conclusion = Sequent(tuple(Box(b) for b in rest) + goal.ante, goal.succ)
        d = Derivation(conclusion, RuleId.CUT, (Box(a),), (boxed, d))
    return d


@pytest.mark.parametrize("order", ["as reduced", "permuted"])
def test_witnesses_over_reductions_with_plain_boxes_are_the_reference_witnesses(order):
    """A reduction whose conclusion holds boxes that were never filled, as
    a hand-built derivation or one read from JSON may, in the order of the
    assumptions or in another: the witness cuts those nodes as they stand,
    in their order, and its first print renders them unfilled.  The
    witness, its JSON and the kernel's verdict on it are those of the
    reference discharge of the leading boxes' assumptions, in that order."""
    for i, assumptions in enumerate(_inconsistent_sets()):
        res = prove(reduction_sequent(assumptions), 100_000)
        assert res.accepted
        boxes = [Box(a) for a in assumptions]
        if order == "permuted":
            random.Random(i).shuffle(boxes)
        reduction = res.derivation._replace(conclusion=Sequent(tuple(boxes), (BOT,)))
        witness = discharge(reduction, assumptions, FALSUM_SEQUENT)
        assert witness.principal[0] is boxes[-1]
        assert not hasattr(witness.principal[0], "_k")
        _assert_json_as_the_reference(witness)
        want = _reference_discharge(reduction, [b.f for b in boxes], FALSUM_SEQUENT)
        assert witness == want
        assert _as_json_bytes(derivation_to_json(witness)) == _as_json_bytes(derivation_to_json(want))
        assumed = assumption_sequents(assumptions)
        assert _refusal(check_derivation, witness, assumed) == _refusal(reference_check_derivation, want, assumed)


@pytest.mark.parametrize(
    "name", ["example1_derivation.json", "cut_contraction_demo.json", "boxed_assumption.json", "bad_init.json"]
)
def test_derivation_json_of_corpus_derivations_is_the_reference_json(name):
    """Hand-written derivations, with the checker-only rules, read back and
    written again."""
    d = derivation_from_json(json.loads((CORPUS / name).read_text()))
    _assert_json_as_the_reference(d)
