"""Seeded goal streams for the benchmark's four workloads.

Each workload has a pool of goals, each goal the text a user would give the
CLI plus the answer known independently of the prover, if any.  The pool is
drawn once, from spec.json's pool_seed, and is the same for every run; the
run's seed shuffles it.  A stream hands out cycles: each cycle is the whole
pool in a new order drawn from random.Random(seed).  The same workload,
parameters and seed always give the same cycles.  Parameters come from
spec.json.

The generators draw heavy-tailed goals: at these sizes about one draw in a
thousand takes seconds, and rarer ones run for minutes.  A fixed pool keeps
every run's goals inside what a run can finish (spec.json records the pool's
slowest goals) and every run's work the same, so that two runs can be
compared; a per-run draw could not promise either.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Optional

from bmdl import gen
from bmdl.corpus import read_sequent_file
from bmdl.formula import Atom, Formula, Sequent
from bmdl.parser import print_formula, print_sequent

BENCH_DIR = Path(__file__).resolve().parent
CORPUS = BENCH_DIR.parent / "corpus"


@dataclass(frozen=True)
class Goal:
    gid: str
    verb: str  # "prove" or "consistent"
    text: str  # a sequent for prove, a problem file for consistent
    expect: Optional[bool]  # derivable / consistent, when known
    limit_s: float  # wall-clock limit for the goal


def load_spec() -> dict:
    return json.loads((BENCH_DIR / "spec.json").read_text())


def workload_params(spec: dict, name: str, tiny: bool) -> dict:
    """A workload's parameters; tiny ones overridden for the self-test."""
    params = dict(spec["workloads"][name])
    params["generator"] = dict(params["generator"])
    if tiny:
        for key, value in params["tiny"].items():
            (params["generator"] if key in params["generator"] else params)[key] = value
    return params


def _substitute(f: Formula, sub: dict[str, Formula]) -> Formula:
    if isinstance(f, Atom):
        return sub.get(f.name, f)
    return type(f)(*(_substitute(getattr(f, x.name), sub) for x in fields(f)))


def _atom_names(f: Formula) -> set[str]:
    if isinstance(f, Atom):
        return {f.name}
    out: set[str] = set()
    for x in fields(f):
        out |= _atom_names(getattr(f, x.name))
    return out


def _manifest() -> list[dict]:
    return json.loads((CORPUS / "manifest.json").read_text())["entries"]


def build_pool(spec: dict, name: str, tiny: bool = False) -> list[Goal]:
    """The workload's goals, the same for every run."""
    params = workload_params(spec, name, tiny)
    drawn, fixed = float(spec["limits"]["drawn_s"]), float(spec["limits"]["fixed_s"])
    rng = random.Random(spec["pool_seed"])
    make = {
        "random-mix": _random_mix,
        "schema-derivable": _schema_derivable,
        "consistency": _consistency,
        "model-families": _model_families,
    }[name]
    return make(name, params, rng, drawn, fixed)


def _random_mix(name, params, rng, drawn, fixed) -> list[Goal]:
    g = params["generator"]
    goals = []
    for i in range(params["goals"]):
        s = gen.random_sequent(rng, size=g["sizes"][i % len(g["sizes"])], width=g["width"])
        goals.append(Goal(f"{name}:{i}", "prove", print_sequent(s), None, drawn))
    return goals


def _schema_derivable(name, params, rng, drawn, fixed) -> list[Goal]:
    schemas = [
        read_sequent_file(CORPUS / e["file"])
        for e in _manifest()
        if e["kind"] == "sequent" and e.get("basis") == "axiom-schema"
    ]
    goals = []
    for i in range(params["goals"]):
        schema = schemas[i % len(schemas)]
        names = sorted(set().union(*(_atom_names(f) for f in schema.ante + schema.succ)))
        sub = {a: gen.random_formula(rng, params["generator"]["substituent_size"]) for a in names}
        s = Sequent(
            tuple(_substitute(f, sub) for f in schema.ante),
            tuple(_substitute(f, sub) for f in schema.succ),
        )
        goals.append(Goal(f"{name}:{i}", "prove", print_sequent(s), True, drawn))
    return goals


def _consistency(name, params, rng, drawn, fixed) -> list[Goal]:
    g = params["generator"]
    expect = {e["file"]: e["expect"]["consistent"] for e in _manifest() if "consistent" in e["expect"]}
    goals = [Goal(f"{name}:{f}", "consistent", (CORPUS / f).read_text(), expect[f], fixed) for f in g["corpus"]]
    for i in range(params["goals"]):
        fs = gen.random_assumptions(rng, rng.choice(g["counts"]), size=g["size"], modal_depth=g["modal_depth"])
        text = "".join(f"assume {print_formula(f)}\n" for f in fs)
        goals.append(Goal(f"{name}:{i}", "consistent", text, None, drawn))
    return goals


def _model_families(name, params, rng, drawn, fixed) -> list[Goal]:
    g = params["generator"]
    goals = []
    for d in g["box_depths"]:
        f = "p"
        for i in range(d):
            f = f"[]({f} | q{i})"
        goals.append(Goal(f"{name}:box{d}", "prove", f"{f} |- p", False, fixed))
    for n in g["obligation_counts"]:
        ante = ", ".join(f"O(p{i} / q{i % 3})" for i in range(n))
        goals.append(Goal(f"{name}:obl{n}", "prove", f"{ante} |- O(r / s)", False, fixed))
    return goals


class Stream:
    """Cycles through one workload's pool in orders drawn from the seed.
    Goal ids carry the cycle number, so that they are unique within a run."""

    def __init__(self, spec: dict, name: str, seed: int, tiny: bool = False):
        self.pool = build_pool(spec, name, tiny)
        self.rng = random.Random(seed)
        self.cycles = 0

    def next_cycle(self) -> list[Goal]:
        order = list(self.pool)
        self.rng.shuffle(order)
        self.cycles += 1
        return [replace(g, gid=f"{g.gid}/{self.cycles}") for g in order]
