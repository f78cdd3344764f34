from pathlib import Path

import hypothesis.strategies as st
from hypothesis import settings

from bmdl.calculus import ONE_PREMISS_MOVES
from bmdl.formula import And, Atom, BOT, Box, Imp, Neg, Obl, Or, Sequent

REPO = Path(__file__).resolve().parent.parent
CORPUS = REPO / "corpus"

settings.register_profile("suite", deadline=None, max_examples=60)
settings.load_profile("suite")

ACCEPTANCE_LINES: list = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)

atoms = st.builds(Atom, st.sampled_from(["p", "q", "r", "s"]))
leaves = st.one_of(atoms, st.just(BOT))


def _extend(children):
    return st.one_of(
        st.builds(Neg, children),
        st.builds(Box, children),
        st.builds(And, children, children),
        st.builds(Or, children, children),
        st.builds(Imp, children, children),
        st.builds(Obl, children, children),
    )


formulas = st.recursive(leaves, _extend, max_leaves=8)

formula_tuples = st.lists(formulas, max_size=3).map(tuple)

sequents = st.builds(Sequent, formula_tuples, formula_tuples)


ANTE, SUCC = 0, 1  # the sides, as ONE_PREMISS_MOVES indexes them


def one_premiss_move(f, side, s):
    """The move table's entry for principal f on the given side of the set
    sequent s: None when no one-premiss rule takes f there or its move is
    unproductive at s."""
    move = ONE_PREMISS_MOVES[side].get(type(f))
    return None if move is None else move(f, s.ante, s.succ)
