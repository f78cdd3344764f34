"""Differential gate on proof search: seeded goals from bmdl.gen keep the
verdict and the derivation recorded in data/frozen_verdicts.json.

Any change to search order or pruning must leave this file's records
intact.  Re-record only when a change of output is intended:

    PYTHONPATH=src python tests/test_frozen_verdicts.py tests/data/frozen_verdicts.json
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
from pathlib import Path

from bmdl.gen import random_sequent
from bmdl.kernel import derivation_to_json
from bmdl.parser import parse_sequent, print_sequent
from bmdl.search import Budget, BudgetExceeded, prove

DATA = Path(__file__).resolve().parent / "data" / "frozen_verdicts.json"
SEED = 1705
COUNT = 2000
BUDGET = 200_000
SIZES = (6, 7, 8, 9, 10)
WIDTHS = (2, 3)


def goal_texts(seed: int, count: int) -> list[str]:
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        size, width = rng.choice(SIZES), rng.choice(WIDTHS)
        out.append(print_sequent(random_sequent(rng, size=size, width=width)))
    return out


def verdict(text: str, budget: int = BUDGET) -> tuple[str, str | None]:
    """The search verdict on a goal, with a digest of its derivation JSON."""
    try:
        res = prove(parse_sequent(text), Budget(budget))
    except BudgetExceeded:
        return "inconclusive", None
    if not res.accepted:
        return "underivable", None
    blob = json.dumps(derivation_to_json(res.derivation), sort_keys=True, ensure_ascii=False)
    return "derivable", hashlib.sha256(blob.encode()).hexdigest()[:16]


def test_verdicts_and_derivations_are_frozen():
    data = json.loads(DATA.read_text())
    changed = []
    for text, want, digest in data["goals"]:
        got = verdict(text, data["budget"])
        if got != (want, digest):
            changed.append((text, (want, digest), got))
    assert not changed, f"{len(changed)} of {len(data['goals'])} changed, first: {changed[:3]}"


def main() -> None:
    ap = argparse.ArgumentParser(description="record the frozen verdict set")
    ap.add_argument("out", type=Path)
    ap.add_argument("--seed", type=int, default=SEED)
    ap.add_argument("--count", type=int, default=COUNT)
    args = ap.parse_args()
    head = {"seed": args.seed, "sizes": SIZES, "widths": WIDTHS, "budget": BUDGET}
    rows = ",\n".join(
        json.dumps([text, *verdict(text)], ensure_ascii=False)
        for text in goal_texts(args.seed, args.count)
    )
    # one goal per line, so that a re-recording diffs goal by goal
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(f'{json.dumps(head)[:-1]}, "goals": [\n{rows}\n]}}\n')


if __name__ == "__main__":
    main()
