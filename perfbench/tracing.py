"""Spans around calls into bmdl's layers, recorded from outside the package.

Tracer.install() replaces public functions on their modules (for example
bmdl.countermodel.decide, the oracle's view of search.decide) with wrappers
that time each call.  Every span carries the goal id and its parent span;
a span's self time is its duration minus the time of the spans it
encloses, so the self times of one goal add up to the goal's traced wall
time.  Spans stay in memory until the run writes them out.

Three kinds of wrapper keep the cost of tracing low:
  SPAN   one record per call, with the budget steps spent inside it and
         a boolean result if the function returned one;
  AGG    hot functions (millions of calls on hard goals) are summed per
         goal, parent span and name instead of recorded one by one;
  FLAT   recursive functions get one span for the outermost call; the
         recursion runs unwrapped, so tracing adds no stack depth.
"""

from __future__ import annotations

import importlib
import json
from collections import defaultdict
from pathlib import Path
from time import perf_counter

SPAN, AGG, FLAT = "span", "agg", "flat"

# (module, attribute, span name, kind).  A function imported into several
# modules is wrapped on each of them, under one span name.
WRAPS = [
    ("parser", "parse_sequent", "parser.parse_sequent", SPAN),
    ("parser", "parse_problem", "parser.parse_problem", SPAN),
    ("search", "proof_tree", "search.proof_tree", SPAN),
    ("search", "assemble_derivation", "search.assemble_derivation", FLAT),
    ("search", "saturate", "search.saturate", AGG),
    ("countermodel", "saturate", "search.saturate", AGG),
    ("calculus", "sorted_formulas", "formula.sorted_formulas", AGG),
    ("search", "sorted_formulas", "formula.sorted_formulas", AGG),
    ("countermodel", "sorted_formulas", "formula.sorted_formulas", AGG),
    ("kernel", "check_derivation", "kernel.check_derivation", SPAN),
    ("kernel", "derivation_to_json", "kernel.derivation_to_json", FLAT),
    ("countermodel", "build", "countermodel.build", SPAN),
    ("consistency", "build", "countermodel.build", SPAN),
    ("countermodel", "decide", "countermodel.decide", SPAN),
    ("countermodel", "truth_lemma_audit", "countermodel.truth_lemma_audit", SPAN),
    ("countermodel", "result_to_json", "countermodel.result_to_json", SPAN),
    ("countermodel", "validate_frame", "semantics.validate_frame", SPAN),
    ("countermodel", "rt_closure", "semantics.rt_closure", SPAN),
    ("countermodel", "falsifies", "semantics.falsifies", SPAN),
    ("consistency", "check_consistency", "consistency.check_consistency", SPAN),
    ("consistency", "discharge", "consistency.discharge", SPAN),
]

GOAL_SPAN = "bench.goal"


class Tracer:
    def __init__(self):
        self.active = False
        self.goal = ""
        self.frames: list[list[float]] = []  # [time of enclosed spans] per open span
        self.sids: list[int] = []  # ids of the open SPAN/FLAT spans
        self.next_sid = 0
        # (sid, goal, parent sid, name, start, end, self, steps, bool result)
        self.spans: list[tuple] = []
        # (goal, parent sid, name) -> [calls, total time, self time]
        self.aggs: dict[tuple, list] = defaultdict(lambda: [0, 0.0, 0.0])
        self._installed: list[tuple] = []

    # goals -----------------------------------------------------------------

    def begin_goal(self, gid: str) -> float:
        self.goal = gid
        self.frames = [[0.0]]
        self.sids = [self.next_sid]
        self.next_sid += 1
        self.active = True
        self._goal_start = perf_counter()
        return self._goal_start

    def end_goal(self) -> float:
        end = perf_counter()
        self.active = False
        dur = end - self._goal_start
        self.spans.append(
            (self.sids[0], self.goal, None, GOAL_SPAN, self._goal_start, end, dur - self.frames[0][0], None, None)
        )
        return end

    # wrappers --------------------------------------------------------------

    def install(self) -> None:
        for mod_name, attr, name, kind in WRAPS:
            module = importlib.import_module(f"bmdl.{mod_name}")
            fn = getattr(module, attr)
            if kind == FLAT:
                wrapper = self._flat(name, fn, module, attr)
            else:
                wrapper = (self._span if kind == SPAN else self._agg)(name, fn)
            setattr(module, attr, wrapper)
            self._installed.append((module, attr, fn))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._installed):
            setattr(module, attr, fn)
        self._installed.clear()

    def _span(self, name, fn):
        tr = self

        def wrapper(*args, **kwargs):
            if not tr.active:
                return fn(*args, **kwargs)
            sid = tr.next_sid
            tr.next_sid += 1
            parent = tr.sids[-1]
            budget = args[1] if len(args) > 1 else kwargs.get("budget")
            used = getattr(budget, "used", None)
            frame = [0.0]
            tr.frames.append(frame)
            tr.sids.append(sid)
            result = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                tr.frames.pop()
                tr.sids.pop()
                dur = end - start
                tr.frames[-1][0] += dur
                tr.spans.append(
                    (
                        sid,
                        tr.goal,
                        parent,
                        name,
                        start,
                        end,
                        dur - frame[0],
                        None if used is None else budget.used - used,
                        result if isinstance(result, bool) else None,
                    )
                )

        return wrapper

    def _agg(self, name, fn):
        tr = self

        def wrapper(*args, **kwargs):
            if not tr.active:
                return fn(*args, **kwargs)
            frame = [0.0]
            frames = tr.frames
            frames.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf_counter() - start
                frames.pop()
                frames[-1][0] += dur
                rec = tr.aggs[(tr.goal, tr.sids[-1], name)]
                rec[0] += 1
                rec[1] += dur
                rec[2] += dur - frame[0]

        return wrapper

    def _flat(self, name, fn, module, attr):
        inner = self._span(name, fn)
        tr = self

        def wrapper(*args, **kwargs):
            if not tr.active:
                return fn(*args, **kwargs)
            setattr(module, attr, fn)
            try:
                return inner(*args, **kwargs)
            finally:
                setattr(module, attr, wrapper)

        return wrapper

    # output ----------------------------------------------------------------

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            for sid, goal, parent, name, start, end, self_s, steps, result in self.spans:
                rec = {"sid": sid, "goal": goal, "parent": parent, "name": name, "start": start, "end": end,
                       "self": self_s, "steps": steps, "result": result}
                out.write(json.dumps(rec) + "\n")
            for (goal, parent, name), (calls, total, self_s) in self.aggs.items():
                rec = {"goal": goal, "parent": parent, "name": name, "calls": calls, "total": total, "self": self_s}
                out.write(json.dumps(rec) + "\n")


def layer_metrics(spans: list[tuple], aggs: dict, goals: set[str]) -> dict[str, float]:
    """Per-layer totals over the given goals; see spec.json for the map."""
    spans = [s for s in spans if s[1] in goals]
    name_of = {s[0]: s[3] for s in spans}
    total = defaultdict(float)  # name -> summed duration
    own = defaultdict(float)  # name -> summed self time
    for sid, goal, parent, name, start, end, self_s, steps, result in spans:
        total[name] += end - start
        own[name] += self_s
    agg_calls = defaultdict(int)
    agg_self = defaultdict(float)
    for (goal, parent, name), (n, _, self_s) in aggs.items():
        if goal in goals:
            agg_calls[name] += n
            agg_self[name] += self_s

    top = [s for s in spans if s[3] == "search.proof_tree" and name_of.get(s[2]) != "countermodel.decide"]
    oracle = [s for s in spans if s[3] == "countermodel.decide"]
    builds = {s[0] for s in spans if s[3] == "countermodel.build"}
    first_call: dict[int, tuple] = {}
    for s in oracle:
        if s[2] in builds and (s[2] not in first_call or s[0] < first_call[s[2]][0]):
            first_call[s[2]] = s
    parser_self = sum(v for k, v in own.items() if k.startswith("parser."))
    return {
        "parser.s": parser_self,
        "search.s": sum(s[5] - s[4] for s in top),
        "search.steps": sum(s[7] for s in top),
        "search.saturate_calls": agg_calls["search.saturate"],
        "search.saturate_s": agg_self["search.saturate"],
        "search.assemble_s": total["search.assemble_derivation"],
        "formula.sorted_calls": agg_calls["formula.sorted_formulas"],
        "formula.sorted_s": agg_self["formula.sorted_formulas"],
        "kernel.s": total["kernel.check_derivation"],
        "kernel.json_s": total["kernel.derivation_to_json"],
        "countermodel.s": own["countermodel.build"],
        "countermodel.audit_s": total["countermodel.truth_lemma_audit"],
        "countermodel.json_s": total["countermodel.result_to_json"],
        "countermodel.oracle_calls": len(oracle),
        "countermodel.oracle_s": sum(s[5] - s[4] for s in oracle),
        "countermodel.oracle_steps": sum(s[7] for s in oracle),
        "countermodel.root_redecide_steps": sum(s[7] for s in first_call.values()),
        "countermodel.oracle_underivable_frac": (
            sum(s[8] is False for s in oracle) / len(oracle) if oracle else 0.0
        ),
        "semantics.frame_s": total["semantics.validate_frame"],
        "semantics.rt_closure_s": total["semantics.rt_closure"],
        "semantics.falsifies_s": total["semantics.falsifies"],
        "consistency.s": own["consistency.check_consistency"],
        "consistency.discharge_s": total["consistency.discharge"],
    }

