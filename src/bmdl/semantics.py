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

World bits.  A model is world-indexed: world worlds[i] is bit i, and a
set of worlds is an int mask over those bits.  The model stores each
world's successor mask (succ), each world's generators as (base, cond)
mask pairs (gens) and each atom's truth mask (atoms).  The countermodel
builder fills these masks, and validate_frame, the truth evaluator and
the audit read them.  World names appear only at the boundary: in
model_to_json and model_from_json, in model_of_names, which turns a
model given by names into bits, and where a check takes or reports a
world (holds, truth_set, the messages of validate_frame).  For those,
each model keeps names, the name of each bit, and index, the bit of each
world name.

Stray names.  model_of_names (so model_from_json) gives every name
outside the worlds that an acc pair, a generator or an eta or val key
mentions a bit past them, in the order it meets them, and lists it in
strays; succ holds one mask per bit, strays included, so a pair from a
stray is kept, and stray_keys marks the strays that key an eta or val
entry.  A repeated world name is one world, at its first occurrence, so
the bits of the worlds are those of names[:len(gens)].  An invalid model
therefore evaluates exactly as over sets of names: a stray is in no
truth set, so a box whose world sees it fails, and a generator that
names it makes no obligation true; the generators and atoms of an entry
for a stray are not kept.  Nothing printed follows the bit order:
validate_frame sorts the pairs and names of a violation only to print
it.

One evaluator (truth_mask) computes the masks.  The optional cache of holds,
truth_set, sequent_holds and falsifies maps formulas to their masks in
one model; callers share it across the checks of that model, and
truth_set decodes a mask to the names of its worlds.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, Mapping, NamedTuple, Optional, Sequence

from .calculus import ranks
from .formula import And, Atom, Bottom, Box, Formula, Imp, Neg, Obl, Or, Sequent


@dataclass(frozen=True)
class MModel:
    """A finite model over world bits (see "World bits" in the module
    docstring): succ per bit, gens per world, atoms keyed by atom name.
    names and index, made with the model, read bits and names both ways."""

    worlds: tuple[str, ...]
    succ: tuple[int, ...]
    gens: tuple[tuple[tuple[int, int], ...], ...]
    atoms: Mapping[str, int]
    strays: tuple[str, ...] = ()
    stray_keys: int = 0

    def __post_init__(self) -> None:
        # names: each bit's name, the worlds once each, then the strays;
        # index: the bit of each world name, at its first occurrence
        names = tuple(dict.fromkeys(self.worlds)) + self.strays
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "index", dict(zip(names, range(len(self.gens)))))


def model_of_names(
    worlds: Iterable[str],
    acc: Iterable[tuple[str, str]],
    eta: Mapping[str, Iterable[tuple[Iterable[str], Iterable[str]]]],
    val: Mapping[str, Iterable[str]],
) -> MModel:
    """The model whose worlds, accessibility pairs, generators (base, cond)
    per world and true atoms per world are given by name; names outside
    the worlds become strays (see "Stray names" in the module docstring)."""
    worlds = tuple(worlds)
    index = {w: i for i, w in enumerate(dict.fromkeys(worlds))}
    n = len(index)

    def mask(names: Iterable[str]) -> int:  # a new name gets the next bit
        return sum({1 << index.setdefault(x, len(index)) for x in names})

    pairs = [(mask((u,)), mask((v,))) for u, v in acc]
    gens = tuple(tuple((mask(b), mask(c)) for b, c in eta.get(w, ())) for w in list(index)[:n])
    stray_keys = mask((*eta, *val)) >> n << n
    succ = [0] * len(index)
    for u, v in pairs:
        succ[u.bit_length() - 1] |= v
    atoms: dict[str, int] = {}
    for w, true_atoms in val.items():
        for a in true_atoms if index[w] < n else ():
            atoms[a] = atoms.get(a, 0) | 1 << index[w]
    return MModel(worlds, tuple(succ), gens, atoms, tuple(index)[n:], stray_keys)


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
    n = len(m.gens)
    if not n:
        bad.append(FrameViolation("worlds", "a model needs at least one world"))
        return bad
    if n != len(m.worlds):
        bad.append(FrameViolation("worlds", "duplicate world names"))
    succ, names = m.succ, m.names
    if m.strays:
        strays = [(names[u], names[v]) for u, s in enumerate(succ) for v in ranks(s) if u >= n or v >= n]
        for u, v in sorted(strays):
            bad.append(FrameViolation("reference", f"accessibility pair ({u}, {v}) mentions an unknown world"))
        for w in sorted(names[i] for i in ranks(m.stray_keys)):
            bad.append(FrameViolation("reference", f"entry for unknown world {w}"))
    if bad:
        return bad

    for i in range(n):
        if not succ[i] >> i & 1:
            bad.append(FrameViolation("reflexivity", f"missing ({names[i]}, {names[i]})"))
    # every pair (v, x) once per pair (u, v), in the order of the sorted pairs
    gaps = [(names[u], names[v], gap) for u, s in enumerate(succ) for v in ranks(s) if (gap := succ[v] & ~s)]
    for u, v, missing in sorted(gaps, key=lambda gap: gap[:2]):
        for x in sorted(names[i] for i in ranks(missing)):
            bad.append(FrameViolation("transitivity", f"({u}, {v}) and ({v}, {x}) but not ({u}, {x})"))

    full = (1 << n) - 1
    for w, gens, reach in zip(names, m.gens, succ):
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


def truth_mask(m: MModel, f: Formula, cache: dict) -> int:
    """The mask of the worlds at which f holds: the one evaluator.  cache
    maps formulas to their masks in m, and is read first and filled."""
    got = cache.get(f)
    if got is not None:
        return got
    t = type(f)
    if t is Atom:
        v = m.atoms.get(f.name, 0)
    elif t is Neg:
        v = (1 << len(m.gens)) - 1 & ~truth_mask(m, f.f, cache)
    elif t is And:
        v = truth_mask(m, f.l, cache) & truth_mask(m, f.r, cache)
    elif t is Or:
        v = truth_mask(m, f.l, cache) | truth_mask(m, f.r, cache)
    elif t is Imp:
        v = (1 << len(m.gens)) - 1 & ~truth_mask(m, f.l, cache) | truth_mask(m, f.r, cache)
    elif t is Box:
        tg = truth_mask(m, f.f, cache)
        v = 0
        for i, s in enumerate(m.succ[: len(m.gens)]):
            if not s & ~tg:
                v |= 1 << i
    elif t is Obl:
        tb, tc = truth_mask(m, f.body, cache), truth_mask(m, f.cond, cache)
        v = 0
        for i, gens in enumerate(m.gens):
            if gens:
                s = m.succ[i]
                tbs, tcs = tb & s, tc & s
                for base, cond in gens:
                    if cond == tcs and not base & ~tbs:
                        v |= 1 << i
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
    names = m.names
    return frozenset(names[i] for i in ranks(truth_mask(m, f, {} if cache is None else cache)))


def holds(m: MModel, w: str, f: Formula, cache: Optional[dict] = None) -> bool:
    i = m.index.get(w)
    if i is None:
        raise ValueError(f"unknown world {w}")
    return bool(truth_mask(m, f, {} if cache is None else cache) >> i & 1)


def sequent_holds(m: MModel, w: str, s: Sequent, cache: Optional[dict] = None) -> bool:
    """A sequent holds at w unless every antecedent member is true there and
    every succedent member false."""
    return any(not holds(m, w, f, cache) for f in s.ante) or any(
        holds(m, w, f, cache) for f in s.succ
    )


def falsifies(m: MModel, w: str, s: Sequent, cache: Optional[dict] = None) -> bool:
    return not sequent_holds(m, w, s, cache)


def rt_closure(succ: Sequence[int], n: int) -> list[int]:
    """The reflexive transitive closure of a relation given as one successor
    mask per bit: bit u reaches v when a nonempty path of pairs joins them,
    and each of the first n bits, the worlds, reaches itself.  Each pass
    runs over the bits from the last to the first and joins to each bit's
    reach the reach of its successors; passes repeat until one changes
    nothing, which after a pass over pairs that all go to later bits is
    the next one."""
    onward = [ranks(s) for s in succ]
    reach = list(succ)
    changed = True
    while changed:
        changed = False
        for u in range(len(reach) - 1, -1, -1):
            r = old = reach[u]
            for v in onward[u]:
                r |= reach[v]
            if r != old:
                reach[u] = r
                changed = True
    for w in range(n):
        reach[w] |= 1 << w
    return reach


# ---------------------------------------------------------------------------
# serialization


def model_to_json(m: MModel) -> dict:
    """The model by names: worlds, sorted acc pairs, and the eta and val
    entries of the worlds that have any, with every name list sorted."""
    names, succ = m.names, m.succ
    decoded: dict[int, list[str]] = {}  # each mask met, to its sorted names

    def sorted_names(mask: int) -> list[str]:
        got = decoded.get(mask)
        if got is None:
            got = decoded[mask] = sorted([names[v] for v in ranks(mask)])
        return got

    atoms = sorted(m.atoms.items())
    return {
        "worlds": list(m.worlds),
        "acc": [[names[u], v] for u in sorted(range(len(names)), key=names.__getitem__) for v in sorted_names(succ[u])],
        "eta": {
            names[w]: [{"base": sorted_names(base)[:], "cond": sorted_names(cond)[:]} for base, cond in gens]
            for w, gens in enumerate(m.gens)
            if gens
        },
        "val": {w: true for i, w in enumerate(names[: len(m.gens)]) if (true := [a for a, t in atoms if t >> i & 1])},
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
    """Rebuild a model from model_to_json output, with acc closed by
    rt_closure when close_rt is set; data of another shape raises
    ValueError."""
    if not isinstance(data, dict):
        raise ValueError("malformed model data: a model must be a JSON object")
    worlds = data.get("worlds")
    if not (isinstance(worlds, list) and all(isinstance(w, str) for w in worlds)):
        raise ValueError('malformed model data: "worlds" must be a list of world names')
    try:
        acc = [_pair(p) for p in data.get("acc", [])]
        eta = {
            w: [(_names(g["base"], "base"), _names(g["cond"], "cond")) for g in gens]
            for w, gens in data.get("eta", {}).items()
        }
        val = {w: _names(atoms, f"val of {w}") for w, atoms in data.get("val", {}).items()}
    except (AttributeError, KeyError, TypeError, ValueError) as e:
        raise ValueError(f"malformed model data: {e}") from None
    m = model_of_names(worlds, acc, eta, val)
    if close_rt:
        m = replace(m, succ=tuple(rt_closure(m.succ, len(m.gens))))
    return m
