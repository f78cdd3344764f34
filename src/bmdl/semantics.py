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
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, Optional

from .formula import And, Atom, Bottom, Box, Formula, Imp, Neg, Obl, Or, Sequent


@dataclass(frozen=True)
class Generator:
    base: frozenset[str]
    cond: frozenset[str]


@dataclass(frozen=True)
class MModel:
    worlds: tuple[str, ...]
    acc: frozenset[tuple[str, str]]
    eta: Mapping[str, tuple[Generator, ...]]
    val: Mapping[str, frozenset[str]]

    @cached_property
    def _succ(self) -> dict[str, frozenset[str]]:
        out: dict[str, set[str]] = {w: set() for w in self.worlds}
        for u, v in self.acc:
            if u in out:
                out[u].add(v)
        return {w: frozenset(vs) for w, vs in out.items()}

    def successors(self, w: str) -> frozenset[str]:
        return self._succ.get(w, frozenset())


@dataclass(frozen=True)
class FrameViolation:
    kind: str
    message: str

    def __str__(self) -> str:
        return f"{self.kind}: {self.message}"


def validate_frame(m: MModel) -> list[FrameViolation]:
    """All frame-condition violations, empty when the model is admissible."""
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
    # every pair (v, x) once per pair (u, v), in the order of sorted(m.acc)
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
                        FrameViolation(
                            "conflict",
                            f"generators at {w} share a cond set but have disjoint bases",
                        )
                    )
    return bad


def truth_set(m: MModel, f: Formula, cache: Optional[dict] = None) -> frozenset[str]:
    """Worlds of m at which f holds."""
    if cache is None:
        cache = {}
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
            case _:
                raise TypeError(f"not a formula: {f!r}")
        cache[f] = v
        return v

    return ev(f)


def holds(m: MModel, w: str, f: Formula, cache: Optional[dict] = None) -> bool:
    if w not in m.worlds:
        raise ValueError(f"unknown world {w}")
    return w in truth_set(m, f, cache)


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


def model_from_json(data: dict, close_rt: bool = False) -> MModel:
    try:
        worlds = tuple(str(w) for w in data["worlds"])
        acc = frozenset((str(u), str(v)) for u, v in data.get("acc", []))
        eta = {
            str(w): tuple(
                Generator(frozenset(map(str, g["base"])), frozenset(map(str, g["cond"])))
                for g in gens
            )
            for w, gens in data.get("eta", {}).items()
        }
        val = {str(w): frozenset(map(str, atoms)) for w, atoms in data.get("val", {}).items()}
    except (KeyError, TypeError, ValueError) as e:
        raise ValueError(f"malformed model data: {e}") from None
    if close_rt:
        acc = rt_closure(worlds, acc)
    for w in worlds:
        eta.setdefault(w, ())
        val.setdefault(w, frozenset())
    return MModel(worlds, acc, eta, val)
