"""Seeded random formulas and sequents, for benchmarks and stress tests.

Every node is filled when it is made (formula.Formula), so the generator
shares one Atom per name, as the parser shares the atoms of one parse,
rather than make and fill a new one at every leaf.
"""

from __future__ import annotations

import functools
import random
from typing import Sequence

from .formula import And, Atom, BOT, Box, Formula, Imp, Neg, Obl, Or, Sequent

DEFAULT_ATOMS: tuple[str, ...] = ("p", "q", "r", "s")

_atom = functools.cache(Atom)


def random_formula(
    rng: random.Random,
    size: int,
    atoms: Sequence[str] = DEFAULT_ATOMS,
    modal_depth: int = 3,
) -> Formula:
    """A formula with roughly `size` connectives and nesting of modal
    operators bounded by `modal_depth`."""
    if size <= 1:
        if rng.random() < 0.08:
            return BOT
        return _atom(rng.choice(atoms))
    kinds = ["neg", "and", "or", "imp", "and", "or", "imp"]
    if modal_depth > 0:
        kinds += ["box", "obl", "box", "obl"]
    kind = rng.choice(kinds)
    if kind == "neg":
        return Neg(random_formula(rng, size - 1, atoms, modal_depth))
    if kind == "box":
        return Box(random_formula(rng, size - 1, atoms, modal_depth - 1))
    left = rng.randint(1, max(1, size - 2))
    right = max(1, size - 1 - left)
    if kind == "obl":
        return Obl(
            random_formula(rng, left, atoms, modal_depth - 1),
            random_formula(rng, right, atoms, modal_depth - 1),
        )
    l = random_formula(rng, left, atoms, modal_depth)
    r = random_formula(rng, right, atoms, modal_depth)
    return {"and": And, "or": Or, "imp": Imp}[kind](l, r)


def random_sequent(
    rng: random.Random,
    size: int = 5,
    atoms: Sequence[str] = DEFAULT_ATOMS,
    modal_depth: int = 3,
    width: int = 2,
) -> Sequent:
    """A sequent with up to `width` formulas per side, at least one formula
    overall."""
    n_ante = rng.randint(0, width)
    n_succ = rng.randint(0 if n_ante else 1, width)
    ante = tuple(
        random_formula(rng, rng.randint(1, size), atoms, modal_depth)
        for _ in range(n_ante)
    )
    succ = tuple(
        random_formula(rng, rng.randint(1, size), atoms, modal_depth)
        for _ in range(n_succ)
    )
    return Sequent(ante, succ)


def random_assumptions(
    rng: random.Random,
    count: int,
    size: int = 4,
    atoms: Sequence[str] = DEFAULT_ATOMS,
    modal_depth: int = 2,
) -> tuple[Formula, ...]:
    return tuple(
        random_formula(rng, rng.randint(1, size), atoms, modal_depth)
        for _ in range(count)
    )
