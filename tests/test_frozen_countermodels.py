"""Differential gate on countermodel construction: every underivable goal of
data/frozen_verdicts.json keeps the countermodel report recorded in
data/frozen_countermodels.json, as a sha256 digest of its JSON beside the
model's world count, both from build alone and from certify, whose build
starts from the memo of the search that refuted the goal.  On failure the
message counts the models that gained worlds and those that lost some.

Any change to the oracle, the builder or its caching must leave these
records intact.  Re-record only when a change of output is intended:

    PYTHONPATH=src python tests/test_frozen_countermodels.py tests/data/frozen_countermodels.json
"""

from __future__ import annotations

import argparse
import hashlib
import json
from pathlib import Path

from bmdl.countermodel import build, certify, result_to_json
from bmdl.parser import parse_sequent
from bmdl.search import Budget

HERE = Path(__file__).resolve().parent
VERDICTS = HERE / "data" / "frozen_verdicts.json"
DATA = HERE / "data" / "frozen_countermodels.json"


def digest(report: dict) -> str:
    blob = json.dumps(report, sort_keys=True, ensure_ascii=False)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def underivable_goals() -> tuple[int, list[str]]:
    data = json.loads(VERDICTS.read_text())
    return data["budget"], [text for text, want, _ in data["goals"] if want == "underivable"]


def record(res) -> tuple[str, int]:
    return digest(result_to_json(res)), len(res.model.worlds)


def test_countermodels_are_frozen():
    data = json.loads(DATA.read_text())
    changed = []
    for text, want, worlds in data["goals"]:
        goal = parse_sequent(text)
        built = record(build(goal, Budget(data["budget"])))
        cm = certify(goal, Budget(data["budget"])).countermodel
        certified = cm and record(cm)
        if (built, certified) != ((want, worlds), (want, worlds)):
            changed.append((text, worlds, built, certified))
    assert len(data["goals"]) == len(underivable_goals()[1])
    gained = sum(built[1] > worlds for _, worlds, built, _ in changed)
    lost = sum(built[1] < worlds for _, worlds, built, _ in changed)
    assert not changed, (
        f"{len(changed)} of {len(data['goals'])} changed ({gained} gained worlds, {lost} lost worlds),"
        f" first: {changed[:3]}"
    )


def main() -> None:
    ap = argparse.ArgumentParser(description="record the frozen countermodel set")
    ap.add_argument("out", type=Path)
    args = ap.parse_args()
    budget, texts = underivable_goals()
    rows = ",\n".join(
        json.dumps([text, *record(build(parse_sequent(text), Budget(budget)))], ensure_ascii=False)
        for text in texts
    )
    # one goal per line, so that a re-recording diffs goal by goal
    head = {"source": VERDICTS.name, "budget": budget}
    args.out.write_text(f'{json.dumps(head)[:-1]}, "goals": [\n{rows}\n]}}\n')


if __name__ == "__main__":
    main()
