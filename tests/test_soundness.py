"""Derivations checked against the semantics.

The search and the kernel share calculus.premisses_for, so a wrong rule
schema would pass both.  These tests check the schemas, and the
derivations the search emits, against random finite models that pass
validate_frame: preorders closed by rt_closure, and generators with
non-empty bases inside R[w] that overlap whenever their cond sets agree.

  * Static rules are sound world by world: where every premiss holds at a
    world, so does the conclusion.
  * D1, D2, Mon and Four are sound from R[w]: where every premiss holds at
    every world w sees, the conclusion holds at w.  This implies soundness
    from validity (premisses true at every world, conclusion too), which is
    checked as well; it ties D1 and D2 to the frame conditions of non-empty
    bases and no conflicting obligations.
  * D2 and Mon are also checked on models aimed at their condition
    premisses: a world gets generators for obligations whose conditions
    are distinct formulas with equal or nested truth sets on R[w], the case
    in which a schema missing one condition premiss goes wrong.  Random
    principals meet a generator's cond set too rarely for that (about one
    draw in a thousand refutes such a D2).
  * Every node conclusion of every derivation the search emits holds at
    every world.
"""

from __future__ import annotations

import itertools
import random

from hypothesis import given
from hypothesis import strategies as st

from bmdl.calculus import RuleId
from bmdl.consistency import reduction_sequent
from bmdl.formula import BOT, TOP, And, Atom, Box, Imp, Neg, Obl, Or, Sequent
from bmdl.gen import random_assumptions, random_formula, random_sequent
from bmdl.kernel import Derivation, premisses_for
from bmdl.search import BudgetExceeded, prove
from bmdl.semantics import Generator, MModel, rt_closure, sequent_holds, truth_set, validate_frame

ATOMS = ("p", "q", "r")
LITERALS = tuple(Atom(a) for a in ATOMS) + tuple(Neg(Atom(a)) for a in ATOMS) + (BOT, TOP)
# literals and their binary conjunctions and disjunctions: enough formulas
# that two distinct ones often share a truth set on R[w], or nest
PROPOSITIONS = LITERALS + tuple(
    op(a, b) for op in (And, Or) for a, b in itertools.combinations(LITERALS[:6], 2)
)

# Each rule with its principals: (constructor, side, how many arguments).
SHAPES = {
    RuleId.NEG_L: ((Neg, "ante", 1),),
    RuleId.NEG_R: ((Neg, "succ", 1),),
    RuleId.AND_L: ((And, "ante", 2),),
    RuleId.AND_R: ((And, "succ", 2),),
    RuleId.OR_L: ((Or, "ante", 2),),
    RuleId.OR_R: ((Or, "succ", 2),),
    RuleId.IMP_L: ((Imp, "ante", 2),),
    RuleId.IMP_R: ((Imp, "succ", 2),),
    RuleId.T: ((Box, "ante", 1),),
    RuleId.FOUR: ((Box, "succ", 1),),
    RuleId.D1: ((Obl, "ante", 2),),
    RuleId.D2: ((Obl, "ante", 2), (Obl, "ante", 2)),
    RuleId.MON: ((Obl, "ante", 2), (Obl, "succ", 2)),
}
MODAL = (RuleId.FOUR, RuleId.D1, RuleId.D2, RuleId.MON)


def random_model(rng: random.Random, frame_conditions: bool = True) -> MModel:
    """A model of 1-4 worlds on a random preorder, with 0-3 generators per
    world.  Conds and most bases are the truth sets of literals within
    R[w], so that obligations over literals often hold.  With
    frame_conditions, bases are non-empty, and a base that would miss an
    earlier one with the same cond gets a world of it; without, a base may
    be empty and bases may conflict."""
    worlds = tuple(f"w{i}" for i in range(rng.randint(1, 4)))
    pairs = frozenset((rng.choice(worlds), rng.choice(worlds)) for _ in range(rng.randint(0, 5)))
    acc = rt_closure(worlds, pairs)
    val = {w: frozenset(a for a in ATOMS if rng.random() < 0.5) for w in worlds}
    eta = {}
    for w in worlds:
        reach = sorted(v for u, v in acc if u == w)

        def literal_set():
            f = rng.choice(LITERALS)
            return frozenset(v for v in reach if holds_literal(f, val[v]))

        gens: list[Generator] = []
        for _ in range(rng.randint(0, 3)):
            cond = literal_set()
            base = set(literal_set() if rng.random() < 0.5 else rng.sample(reach, rng.randint(0, len(reach))))
            if frame_conditions:
                if not base:
                    base.add(rng.choice(reach))
                for g in gens:
                    if g.cond == cond and not base & g.base:
                        base.add(min(g.base))
            gens.append(Generator(frozenset(base), cond))
        eta[w] = tuple(gens)
    m = MModel(worlds, acc, eta, val)
    assert frame_conditions <= (validate_frame(m) == [])
    return m


def holds_literal(f, atoms: frozenset[str]) -> bool:
    """The truth of a LITERALS entry at a world whose true atoms are atoms."""
    match f:
        case Atom(name):
            return name in atoms
        case Neg(g):
            return not holds_literal(g, atoms)
    return False  # falsum


def random_instance(
    rng: random.Random, rule: RuleId, principal: tuple = ()
) -> tuple[Sequent, tuple[Sequent, ...]]:
    """A conclusion for rule, with random context and the given principals
    (random ones when none are given), and the premisses the schema gives
    it."""

    def formula():
        if rng.random() < 0.5:  # literals meet generator conds more often
            return rng.choice(LITERALS)
        return random_formula(rng, rng.randint(1, 4), ATOMS, modal_depth=2)

    ante = [formula() for _ in range(rng.randint(0, 2))]
    succ = [formula() for _ in range(rng.randint(0, 2))]
    principal = principal or tuple(cls(*(formula() for _ in range(arity))) for cls, _, arity in SHAPES[rule])
    for f, (_, side, _) in zip(principal, SHAPES[rule]):
        (ante if side == "ante" else succ).insert(rng.randint(0, 2), f)
    conclusion = Sequent(tuple(ante), tuple(succ))
    return conclusion, premisses_for(rule, principal, conclusion)


def aimed_model(rng: random.Random, rule: RuleId) -> tuple[MModel, tuple[Obl, Obl]]:
    """For D2 or Mon, a random frame-valid model and two principal
    obligations O(f1/g1), O(f2/g2) aimed at the condition premisses.  g1
    and g2 are distinct formulas whose truth sets on R[w], for a world w,
    are equal or nested.  w gets a generator that makes O(f1/g1) true
    there, and for D2 one that makes O(f2/g2) true as well, so both
    obligations on the left hold unless the frame's no-conflict condition
    forced a base to grow.  w is a world with the largest R[w], and for D2,
    f1 and f2 are kept apart on R[w] where the model allows it."""
    m = random_model(rng)
    # a world that sees the most, since one world alone cannot tell apart
    # bodies or nest conditions strictly
    widest = max(len(m.successors(v)) for v in m.worlds)
    w = rng.choice([v for v in m.worlds if len(m.successors(v)) == widest])
    reach = m.successors(w)
    cache: dict = {}
    on_reach = {f: truth_set(m, f, cache) & reach for f in PROPOSITIONS}
    g1 = rng.choice(PROPOSITIONS)
    g2 = rng.choice(
        [g for g in PROPOSITIONS if g != g1 and (on_reach[g] <= on_reach[g1] or on_reach[g1] <= on_reach[g])]
    )
    inhabited = [f for f in PROPOSITIONS if on_reach[f]]
    pairs = [(f1, f2) for f1 in inhabited for f2 in inhabited if not on_reach[f1] & on_reach[f2]]
    # for D2, bodies apart on R[w] where possible, so that its body
    # premiss holds and only the condition premisses can fail
    if rule is RuleId.D2 and pairs:
        f1, f2 = rng.choice(pairs)
    else:
        f1, f2 = rng.choice(inhabited), rng.choice(inhabited)
    gens = list(m.eta[w])
    for f, g in ((f1, g1), (f2, g2))[: 2 if rule is RuleId.D2 else 1]:
        base = set(on_reach[f])
        for other in gens:
            if other.cond == on_reach[g] and not base & other.base:
                base.add(min(other.base))
        gens.append(Generator(frozenset(base), on_reach[g]))
    aimed = MModel(m.worlds, m.acc, {**m.eta, w: tuple(gens)}, m.val)
    assert validate_frame(aimed) == []
    return aimed, (Obl(f1, g1), Obl(f2, g2))


def unsound_at(m: MModel, rule: RuleId, conclusion: Sequent, premisses) -> list[str]:
    """The worlds where the instance breaks its soundness condition."""
    cache: dict = {}

    def valid_on(ws, s):
        return all(sequent_holds(m, v, s, cache) for v in ws)

    bad = []
    for w in m.worlds:
        ws = m.successors(w) if rule in MODAL else (w,)
        if all(valid_on(ws, prem) for prem in premisses) and not sequent_holds(m, w, conclusion, cache):
            bad.append(w)
    if rule in MODAL and all(valid_on(m.worlds, prem) for prem in premisses):
        if not valid_on(m.worlds, conclusion):
            bad.append("validity")
    return bad


@given(seed=st.integers(0, 2**32))
def test_every_rule_instance_is_sound_on_random_models(seed):
    rng = random.Random(seed)
    for _ in range(3):
        m = random_model(rng)
        for rule in SHAPES:
            conclusion, premisses = random_instance(rng, rule)
            assert unsound_at(m, rule, conclusion, premisses) == [], (rule, conclusion)


def test_d2_and_mon_are_sound_on_models_aimed_at_their_condition_premisses():
    # the aimed models must also bite: dropping either condition premiss of
    # D2 or of Mon gives a schema that some of them refute
    rng = random.Random(2017)
    refuted = dict.fromkeys(itertools.product((RuleId.D2, RuleId.MON), (1, 2)), 0)
    for _ in range(300):
        for rule in (RuleId.D2, RuleId.MON):
            m, principal = aimed_model(rng, rule)
            conclusion, premisses = random_instance(rng, rule, principal)
            assert unsound_at(m, rule, conclusion, premisses) == [], (rule, conclusion)
            for drop in (1, 2):
                wrong = premisses[:drop] + premisses[drop + 1:]
                refuted[rule, drop] += bool(unsound_at(m, rule, conclusion, wrong))
    assert all(n >= 10 for n in refuted.values()), refuted


def test_the_soundness_check_refutes_unsound_schemas_and_frames():
    # The check must not pass every instance vacuously.  Four keeping the
    # whole antecedent, not only its boxed part, is unsound: p |- []p would
    # follow from p |- p.  D1 is sound only where bases are non-empty, and
    # D2 only where bases with one cond overlap; models that break those
    # frame conditions must refute some of their instances.
    rng = random.Random(7)
    four = d1 = d2 = live = 0
    for _ in range(400):
        m = random_model(rng)
        conclusion, (prem,) = random_instance(rng, RuleId.FOUR)
        wide = Sequent(conclusion.ante, prem.succ)
        four += bool(unsound_at(m, RuleId.FOUR, conclusion, (wide,)))
        live += any(all(sequent_holds(m, v, prem) for v in m.successors(w)) for w in m.worlds)
        broken = random_model(rng, frame_conditions=False)
        d1 += bool(unsound_at(broken, RuleId.D1, *random_instance(rng, RuleId.D1)))
        d2 += bool(unsound_at(broken, RuleId.D2, *random_instance(rng, RuleId.D2)))
    assert four > 0 and d1 > 0 and d2 > 0
    assert live > 100


def _nodes(d: Derivation):
    todo = [d]
    while todo:
        node = todo.pop()
        yield node
        todo.extend(node.children)


@given(seed=st.integers(0, 2**32), kind=st.sampled_from(("sequent", "assumptions")))
def test_every_node_of_an_emitted_derivation_holds_at_every_world(seed, kind):
    rng = random.Random(seed)
    if kind == "sequent":
        goal = random_sequent(rng, size=rng.randint(3, 8), atoms=ATOMS, width=rng.choice((2, 3)))
    else:
        goal = reduction_sequent(random_assumptions(rng, rng.randint(1, 4), atoms=ATOMS))
    try:
        res = prove(goal, 100_000)
    except BudgetExceeded:
        return
    if not res.accepted:
        return
    models = [random_model(rng) for _ in range(4)]
    for node in _nodes(res.derivation):
        for m in models:
            cache: dict = {}
            assert all(sequent_holds(m, w, node.conclusion, cache) for w in m.worlds), node.conclusion


def test_emitted_derivations_are_checked_against_the_semantics_on_derivable_goals():
    # the property above returns early on underivable goals; here enough
    # derivable goals are drawn for it to bite
    rng = random.Random(11)
    checked = 0
    while checked < 60:
        goal = random_sequent(rng, size=rng.randint(3, 8), atoms=ATOMS, width=3)
        res = prove(goal, 100_000)
        if not res.accepted:
            continue
        checked += 1
        m = random_model(rng)
        cache: dict = {}
        for node in _nodes(res.derivation):
            assert all(sequent_holds(m, w, node.conclusion, cache) for w in m.worlds)
