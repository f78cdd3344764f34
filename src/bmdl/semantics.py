"""Finite models: preordered frames with a conditional-obligation map.

A model carries a reflexive transitive accessibility relation and, per
world, a family of (base, cond) generators standing for neighbourhood
pairs: the generator (b, c) denotes every pair (X, c) with b <= X <= R[w].
Upward closure of the first component therefore holds by representation
and is not checked.  The remaining frame conditions are checked
explicitly: generators stay inside R[w], no generator has an empty base,
and two generators with the same cond set must have overlapping bases,
which is exactly the no-conflicting-obligations condition on the denoted
pairs since the bases are the minimal first components.

An obligation O(f/g) holds at w when some generator (b, c) of w has
b inside the truth set of f restricted to R[w] and c equal to the truth
set of g restricted to R[w].

World bits.  validate_frame and the truth evaluator run on one
world-indexed view of a model, built on its first use and cached on the
model (MModel._bits).  World worlds[i], at its first occurrence, is bit i;
a truth set is an int mask over those bits, and so are each world's
successors, each atom's valuation and each generator's base and cond.  A
name outside the worlds that a successor set or a generator mentions gets
a bit past them, in the order the view meets it, which is frozenset order
and may change with the hash seed.  An invalid model therefore evaluates
exactly as over sets of names: such a name is in no truth set, so a box
whose world sees it fails, and a generator that names it makes no
obligation true.  Nothing printed follows the bit order: validate_frame
sorts the pairs and names of a violation only to print it.

One evaluator (_truth) computes the masks.  The optional cache of holds,
truth_set, sequent_holds and falsifies maps formulas to their masks in
one model; callers share it across the checks of that model, and
truth_set decodes a mask to the names of its worlds.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, NamedTuple, Optional

from .formula import And, Atom, Bottom, Box, Formula, Imp, Neg, Obl, Or, Sequent


class Generator(NamedTuple):
    base: frozenset[str]
    cond: frozenset[str]


@dataclass(frozen=True)
class MModel:
    worlds: tuple[str, ...]
    acc: frozenset[tuple[str, str]]
    eta: Mapping[str, tuple[Generator, ...]]
    val: Mapping[str, frozenset[str]]

    @cached_property
    def _bits(self) -> "_WorldBits":
        return _WorldBits(self)

    def successors(self, w: str) -> frozenset[str]:
        view = self._bits
        return frozenset(view.members(view.succ.get(w, 0)))


class _WorldBits:
    """The world-indexed view of a model (see "World bits" in the module
    docstring).  bit maps a name to its one-bit mask, the worlds first;
    succ, gens and obligated are per world, in the order of the worlds."""

    __slots__ = ("bit", "names", "full", "succ", "atoms", "gens", "obligated")

    def __init__(self, m: MModel):
        names = self.names = list(dict.fromkeys(m.worlds))
        bit = self.bit = {w: 1 << i for i, w in enumerate(names)}
        self.full = (1 << len(names)) - 1

        def bit_of(name: str) -> int:
            b = bit.get(name)
            if b is None:
                b = bit[name] = 1 << len(names)
                names.append(name)
            return b

        succ = self.succ = dict.fromkeys(bit, 0)
        for u, v in m.acc:
            if u in succ:
                succ[u] |= bit.get(v) or bit_of(v)
        atoms: dict[str, int] = {}
        for w, true_atoms in m.val.items():
            if w in succ:
                b = bit[w]
                for a in true_atoms:
                    atoms[a] = atoms.get(a, 0) | b
        self.atoms = atoms
        gens = self.gens = {}
        obligated = self.obligated = []
        for w in succ:
            gs = []
            for g in m.eta.get(w, ()):
                base = cond = 0
                for x in g.base:
                    base |= bit.get(x) or bit_of(x)
                for x in g.cond:
                    cond |= bit.get(x) or bit_of(x)
                gs.append((base, cond))
            gens[w] = gs
            if gs:
                obligated.append((bit[w], succ[w], gs))

    def members(self, mask: int) -> list[str]:
        """The names of the bits of mask, in bit order."""
        out = []
        names = self.names
        while mask:
            low = mask & -mask
            out.append(names[low.bit_length() - 1])
            mask ^= low
        return out


class FrameViolation(NamedTuple):
    kind: str
    message: str

    def __str__(self) -> str:
        return f"{self.kind}: {self.message}"


def validate_frame(m: MModel) -> list[FrameViolation]:
    """All frame-condition violations, empty when the model is admissible.
    The checks run on the model's world bits; pairs and names are sorted
    only to print a violation."""
    bad: list[FrameViolation] = []
    view = m._bits
    ws = view.succ  # keyed by the worlds
    if not ws:
        bad.append(FrameViolation("worlds", "a model needs at least one world"))
        return bad
    if len(ws) != len(m.worlds):
        bad.append(FrameViolation("worlds", "duplicate world names"))
    strays = [(u, v) for u, v in m.acc if u not in ws or v not in ws]
    for u, v in sorted(strays):
        bad.append(FrameViolation("reference", f"accessibility pair ({u}, {v}) mentions an unknown world"))
    strays = [w for w in m.eta if w not in ws] + [w for w in m.val if w not in ws]
    for w in sorted(set(strays)):
        bad.append(FrameViolation("reference", f"entry for unknown world {w}"))
    if bad:
        return bad

    bit, succ = view.bit, view.succ
    for w in m.worlds:
        if not succ[w] & bit[w]:
            bad.append(FrameViolation("reflexivity", f"missing ({w}, {w})"))
    # every pair (v, x) once per pair (u, v), in the order of sorted(m.acc)
    gaps = []
    for u, v in m.acc:
        missing = succ[v] & ~succ[u]
        if missing:
            gaps.append((u, v, missing))
    for u, v, missing in sorted(gaps, key=lambda gap: gap[:2]):
        for x in sorted(view.members(missing)):
            bad.append(FrameViolation("transitivity", f"({u}, {v}) and ({v}, {x}) but not ({u}, {x})"))

    full = view.full
    for w in m.worlds:
        gens = view.gens[w]
        reach = succ[w]
        for base, cond in gens:
            if (base | cond) & ~full:
                bad.append(FrameViolation("reference", f"generator at {w} mentions unknown worlds"))
            elif (base | cond) & ~reach:
                bad.append(FrameViolation("generator-range", f"generator at {w} reaches outside R[{w}]"))
            if not base:
                bad.append(FrameViolation("empty-base", f"generator at {w} has an empty base"))
        for j, (base1, cond1) in enumerate(gens):
            for base2, cond2 in gens[j + 1:]:
                if cond1 == cond2 and not base1 & base2:
                    bad.append(
                        FrameViolation(
                            "conflict",
                            f"generators at {w} share a cond set but have disjoint bases",
                        )
                    )
    return bad


def _truth(view: _WorldBits, f: Formula, cache: dict) -> int:
    """The mask of the worlds at which f holds; cache maps formulas to
    their masks in the view's model, and is read first and filled."""
    got = cache.get(f)
    if got is not None:
        return got
    t = type(f)
    if t is Atom:
        v = view.atoms.get(f.name, 0)
    elif t is Neg:
        v = view.full & ~_truth(view, f.f, cache)
    elif t is And:
        v = _truth(view, f.l, cache) & _truth(view, f.r, cache)
    elif t is Or:
        v = _truth(view, f.l, cache) | _truth(view, f.r, cache)
    elif t is Imp:
        v = view.full & ~_truth(view, f.l, cache) | _truth(view, f.r, cache)
    elif t is Box:
        tg = _truth(view, f.f, cache)
        v = 0
        for i, s in enumerate(view.succ.values()):
            if not s & ~tg:
                v |= 1 << i
    elif t is Obl:
        tb, tc = _truth(view, f.body, cache), _truth(view, f.cond, cache)
        v = 0
        for b, s, gens in view.obligated:
            tbs, tcs = tb & s, tc & s
            for base, cond in gens:
                if cond == tcs and not base & ~tbs:
                    v |= b
                    break
    elif t is Bottom:
        v = 0
    else:
        raise TypeError(f"not a formula: {f!r}")
    cache[f] = v
    return v


def truth_set(m: MModel, f: Formula, cache: Optional[dict] = None) -> frozenset[str]:
    """Worlds of m at which f holds.  A cache passed in maps formulas to
    their truth masks in m; it is read first and filled as f is evaluated."""
    view = m._bits
    return frozenset(view.members(_truth(view, f, {} if cache is None else cache)))


def holds(m: MModel, w: str, f: Formula, cache: Optional[dict] = None) -> bool:
    view = m._bits
    if w not in view.succ:
        raise ValueError(f"unknown world {w}")
    return bool(_truth(view, f, {} if cache is None else cache) & view.bit[w])


def sequent_holds(m: MModel, w: str, s: Sequent, cache: Optional[dict] = None) -> bool:
    """A sequent holds at w unless every antecedent member is true there and
    every succedent member false."""
    return any(not holds(m, w, f, cache) for f in s.ante) or any(
        holds(m, w, f, cache) for f in s.succ
    )


def falsifies(m: MModel, w: str, s: Sequent, cache: Optional[dict] = None) -> bool:
    return not sequent_holds(m, w, s, cache)


def rt_closure(
    worlds: tuple[str, ...], pairs: frozenset[tuple[str, str]]
) -> frozenset[tuple[str, str]]:
    """Reflexive transitive closure over the given world set: the identity
    on worlds, plus every pair joined by a nonempty path of pairs, found by
    one walk from each source."""
    onward: dict[str, set[str]] = {}
    for u, v in pairs:
        onward.setdefault(u, set()).add(v)
    acc = {(w, w) for w in worlds}
    for u, first in onward.items():
        reached: set[str] = set()
        todo = list(first)
        while todo:
            v = todo.pop()
            if v not in reached:
                reached.add(v)
                todo.extend(onward.get(v, ()))
        acc.update((u, v) for v in reached)
    return frozenset(acc)


# ---------------------------------------------------------------------------
# serialization


def model_to_json(m: MModel) -> dict:
    return {
        "worlds": list(m.worlds),
        "acc": sorted([u, v] for u, v in m.acc),
        "eta": {
            w: [{"base": sorted(g.base), "cond": sorted(g.cond)} for g in m.eta[w]]
            for w in m.worlds
            if m.eta.get(w)
        },
        "val": {w: sorted(m.val[w]) for w in m.worlds if m.val.get(w)},
    }


def _names(data: object, what: str) -> frozenset[str]:
    """A JSON list of names as a set; anything else, a string included,
    raises ValueError."""
    if not (isinstance(data, list) and all(isinstance(x, str) for x in data)):
        raise ValueError(f"{what} must be a list of names")
    return frozenset(data)


def _pair(data: object) -> tuple[str, str]:
    if not (isinstance(data, list) and len(data) == 2 and all(isinstance(x, str) for x in data)):
        raise ValueError("every acc entry must be a pair of world names")
    return data[0], data[1]


def model_from_json(data: dict, close_rt: bool = False) -> MModel:
    """Rebuild a model from model_to_json output; data of another shape
    raises ValueError."""
    if not isinstance(data, dict):
        raise ValueError("malformed model data: a model must be a JSON object")
    worlds = data.get("worlds")
    if not (isinstance(worlds, list) and all(isinstance(w, str) for w in worlds)):
        raise ValueError('malformed model data: "worlds" must be a list of world names')
    try:
        worlds = tuple(worlds)
        acc = frozenset(_pair(p) for p in data.get("acc", []))
        eta = {
            w: tuple(Generator(_names(g["base"], "base"), _names(g["cond"], "cond")) for g in gens)
            for w, gens in data.get("eta", {}).items()
        }
        val = {w: _names(atoms, f"val of {w}") for w, atoms in data.get("val", {}).items()}
    except (AttributeError, KeyError, TypeError, ValueError) as e:
        raise ValueError(f"malformed model data: {e}") from None
    if close_rt:
        acc = rt_closure(worlds, acc)
    for w in worlds:
        eta.setdefault(w, ())
        val.setdefault(w, frozenset())
    return MModel(worlds, acc, eta, val)
