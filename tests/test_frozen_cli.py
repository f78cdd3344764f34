"""Frozen gate on the command line front end: every verb over the bundled
corpus keeps the exit code and the bytes of stdout and stderr recorded in
data/frozen_cli.json, as sha256 digests.  The runs are made in process
through ``cli.main`` from the repository root, with relative paths, so the
reports hold no machine-specific path.

Each ``"steps": N`` in stdout is blanked before hashing: a search change may
lower the step counts without touching any verdict, derivation or model.

Any refactoring of the front end or the corpus runner must leave these
records intact.  Re-record only when a change of output is intended, from
the repository root:

    PYTHONPATH=src python tests/test_frozen_cli.py tests/data/frozen_cli.json
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import re
from pathlib import Path

from bmdl.cli import main as cli_main

REPO = Path(__file__).resolve().parent.parent
DATA = REPO / "tests" / "data" / "frozen_cli.json"

_STEPS = re.compile(r'"steps": \d+')


def runs() -> list[list[str]]:
    files = sorted(p.name for p in (REPO / "corpus").iterdir() if p.suffix in (".seq", ".mdl"))
    argvs = [[verb, f"corpus/{name}"] for verb in ("prove", "countermodel", "consistent") for name in files]
    argvs.append(["check-model", "corpus/m0.json", "--holds", "w1::O(~hrm / ~false)", "--holds", "w1::hrm"])
    for name in ("example1_derivation.json", "cut_contraction_demo.json", "bad_init.json"):
        argvs.append(["check-proof", f"corpus/{name}"])
    argvs.append(["check-proof", "corpus/boxed_assumption.json", "--assume", "|- p"])
    argvs.append(["corpus", "corpus"])
    return argvs


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def record(argv: list[str]) -> dict:
    """Run one verb in process from the repository root and digest its output."""
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(REPO)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli_main(argv)
    finally:
        os.chdir(cwd)
    return {
        "argv": argv,
        "exit": code,
        "stdout": _sha(_STEPS.sub('"steps": ', out.getvalue())),
        "stderr": _sha(err.getvalue()),
    }


def test_cli_output_is_frozen(monkeypatch):
    monkeypatch.delenv("MDL_BUDGET", raising=False)
    data = json.loads(DATA.read_text())
    assert [row["argv"] for row in data["runs"]] == runs()
    changed = [row["argv"] for row in data["runs"] if record(row["argv"]) != row]
    assert not changed, f"{len(changed)} of {len(data['runs'])} runs changed: {changed}"


def main() -> None:
    ap = argparse.ArgumentParser(description="record the frozen CLI runs")
    ap.add_argument("out", type=Path)
    args = ap.parse_args()
    os.environ.pop("MDL_BUDGET", None)
    rows = ",\n".join(json.dumps(record(argv), ensure_ascii=False) for argv in runs())
    # one run per line, so that a re-recording diffs run by run
    args.out.write_text(f'{{"runs": [\n{rows}\n]}}\n')


if __name__ == "__main__":
    main()
