"""Derivation checker.

A Derivation is a tree of rule nodes over multiset sequents.  The checker
verifies every node against its rule schema with exact multiset matching:
for the transitional rules the premiss antecedent must equal the boxed part
of the conclusion antecedent plus exactly the schema's active formulas.  No
slack; weakening or contraction has to appear as an explicit WeakL/WeakR or
ConL/ConR node.  Assumption leaves are accepted only when their sequent is
(multiset-)equal to one of the supplied assumption sequents.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable

from .calculus import CHECKER_ONLY, RuleId
from .formula import (
    And,
    BOT,
    Box,
    Formula,
    Imp,
    Neg,
    Obl,
    Or,
    Sequent,
)
from .parser import Printer, parse_formula, parse_sequent, print_formula, print_sequent


@dataclass(frozen=True)
class Derivation:
    conclusion: Sequent
    rule: RuleId
    principal: tuple[Formula, ...] = ()
    children: tuple["Derivation", ...] = ()

    def rules_used(self) -> Counter:
        out = Counter([self.rule])
        for c in self.children:
            out += c.rules_used()
        return out


class DerivationError(ValueError):
    """Schema violation, localized by the path of child indices from the root."""

    def __init__(self, path: tuple[int, ...], reason: str):
        self.path = path
        self.reason = reason
        where = "root" if not path else "node " + ".".join(str(i) for i in path)
        super().__init__(f"{where}: {reason}")


def _boxed_tuple(fs: tuple[Formula, ...]) -> tuple[Formula, ...]:
    return tuple(f for f in fs if isinstance(f, Box))


def premisses_for(rule: RuleId, principal: tuple[Formula, ...], c: Sequent) -> tuple[Sequent, ...]:
    """The exact premiss multisets of a rule instance at conclusion c.

    Only for the logical rules; raises DerivationError-free ValueError on a
    malformed instance (wrong principal shape or principal not present).
    """
    A, S = c.ante, c.succ

    def need(f: Formula, side: tuple[Formula, ...], where: str, count: int = 1):
        if side.count(f) < count:
            raise ValueError(f"principal {print_formula(f)} not in {where}")

    match rule:
        case RuleId.NEG_L:
            (p,) = principal
            if not isinstance(p, Neg):
                raise ValueError("NegL principal must be a negation")
            need(p, A, "antecedent")
            return (Sequent(A, S + (p.f,)),)
        case RuleId.NEG_R:
            (p,) = principal
            if not isinstance(p, Neg):
                raise ValueError("NegR principal must be a negation")
            need(p, S, "succedent")
            return (Sequent(A + (p.f,), S),)
        case RuleId.AND_L:
            (p,) = principal
            if not isinstance(p, And):
                raise ValueError("AndL principal must be a conjunction")
            need(p, A, "antecedent")
            return (Sequent(A + (p.l, p.r), S),)
        case RuleId.AND_R:
            (p,) = principal
            if not isinstance(p, And):
                raise ValueError("AndR principal must be a conjunction")
            need(p, S, "succedent")
            return (Sequent(A, S + (p.l,)), Sequent(A, S + (p.r,)))
        case RuleId.OR_L:
            (p,) = principal
            if not isinstance(p, Or):
                raise ValueError("OrL principal must be a disjunction")
            need(p, A, "antecedent")
            return (Sequent(A + (p.l,), S), Sequent(A + (p.r,), S))
        case RuleId.OR_R:
            (p,) = principal
            if not isinstance(p, Or):
                raise ValueError("OrR principal must be a disjunction")
            need(p, S, "succedent")
            return (Sequent(A, S + (p.l, p.r)),)
        case RuleId.IMP_L:
            (p,) = principal
            if not isinstance(p, Imp):
                raise ValueError("ImpL principal must be an implication")
            need(p, A, "antecedent")
            return (Sequent(A, S + (p.l,)), Sequent(A + (p.r,), S))
        case RuleId.IMP_R:
            (p,) = principal
            if not isinstance(p, Imp):
                raise ValueError("ImpR principal must be an implication")
            need(p, S, "succedent")
            return (Sequent(A + (p.l,), S + (p.r,)),)
        case RuleId.T:
            (p,) = principal
            if not isinstance(p, Box):
                raise ValueError("T principal must be boxed")
            need(p, A, "antecedent")
            return (Sequent(A + (p.f,), S),)
        case RuleId.FOUR:
            (p,) = principal
            if not isinstance(p, Box):
                raise ValueError("Four principal must be boxed")
            need(p, S, "succedent")
            return (Sequent(_boxed_tuple(A), (p.f,)),)
        case RuleId.D1:
            (p,) = principal
            if not isinstance(p, Obl):
                raise ValueError("D1 principal must be an obligation")
            need(p, A, "antecedent")
            return (Sequent(_boxed_tuple(A) + (p.body,), ()),)
        case RuleId.D2:
            p1, p2 = principal
            if not (isinstance(p1, Obl) and isinstance(p2, Obl)):
                raise ValueError("D2 principals must be obligations")
            need(p1, A, "antecedent", count=2 if p1 == p2 else 1)
            need(p2, A, "antecedent")
            boxed = _boxed_tuple(A)
            return (
                Sequent(boxed + (p1.body, p2.body), ()),
                Sequent(boxed + (p1.cond,), (p2.cond,)),
                Sequent(boxed + (p2.cond,), (p1.cond,)),
            )
        case RuleId.MON:
            p1, p2 = principal
            if not (isinstance(p1, Obl) and isinstance(p2, Obl)):
                raise ValueError("Mon principals must be obligations")
            need(p1, A, "antecedent")
            need(p2, S, "succedent")
            boxed = _boxed_tuple(A)
            return (
                Sequent(boxed + (p1.body,), (p2.body,)),
                Sequent(boxed + (p1.cond,), (p2.cond,)),
                Sequent(boxed + (p2.cond,), (p1.cond,)),
            )
    raise ValueError(f"{rule.value} has no schema premisses")


def _mseq(s: Sequent) -> tuple[Counter, Counter]:
    return Counter(s.ante), Counter(s.succ)


def _same(a: Sequent, b: Sequent) -> bool:
    """Multiset equality of two sequents, side by side; equal tuples are
    equal multisets, so the count comparison runs only when they differ."""
    return a == b or _mseq(a) == _mseq(b)


def check_derivation(d: Derivation, assumptions: Iterable[Sequent] = ()) -> bool:
    """Check every node; returns True or raises DerivationError at the first
    offending node."""
    assumed = list(assumptions)
    _check(d, assumed, ())
    return True


def _check(d: Derivation, assumed: list[Sequent], path: tuple[int, ...]) -> None:
    A, S = d.conclusion.ante, d.conclusion.succ
    rule = d.rule

    def fail(reason: str):
        raise DerivationError(path, reason)

    def arity(n: int):
        if len(d.children) != n:
            fail(f"{rule.value} expects {n} premiss(es), got {len(d.children)}")

    match rule:
        case RuleId.INIT:
            arity(0)
            shared = set(A) & set(S)
            if not shared:
                fail("Init needs a formula on both sides")
            if d.principal and d.principal[0] not in shared:
                fail("Init principal is not shared")
        case RuleId.BOTTOM_L:
            arity(0)
            if BOT not in A:
                fail("BottomL needs false in the antecedent")
        case RuleId.ASSUMPTION:
            arity(0)
            if not any(_same(d.conclusion, a) for a in assumed):
                fail(f"sequent {print_sequent(d.conclusion)} is not an assumption")
        case RuleId.WEAK_L:
            arity(1)
            ca, cs = _mseq(d.children[0].conclusion)
            ta, ts = _mseq(d.conclusion)
            if cs != ts:
                fail("WeakL must keep the succedent")
            if ca - ta:
                fail("WeakL premiss antecedent is not contained in the conclusion")
        case RuleId.WEAK_R:
            arity(1)
            ca, cs = _mseq(d.children[0].conclusion)
            ta, ts = _mseq(d.conclusion)
            if ca != ta:
                fail("WeakR must keep the antecedent")
            if cs - ts:
                fail("WeakR premiss succedent is not contained in the conclusion")
        case RuleId.CON_L:
            arity(1)
            if len(d.principal) != 1:
                fail("ConL needs its contracted formula as principal")
            p = d.principal[0]
            if Counter(A)[p] < 1:
                fail("ConL principal not in the antecedent")
            ca, cs = _mseq(d.children[0].conclusion)
            if cs != Counter(S) or ca != Counter(A) + Counter((p,)):
                fail("ConL premiss must carry exactly one extra copy")
        case RuleId.CON_R:
            arity(1)
            if len(d.principal) != 1:
                fail("ConR needs its contracted formula as principal")
            p = d.principal[0]
            if Counter(S)[p] < 1:
                fail("ConR principal not in the succedent")
            ca, cs = _mseq(d.children[0].conclusion)
            if ca != Counter(A) or cs != Counter(S) + Counter((p,)):
                fail("ConR premiss must carry exactly one extra copy")
        case RuleId.CUT:
            arity(2)
            if len(d.principal) != 1:
                fail("Cut needs its cut formula as principal")
            p = d.principal[0]
            l, r = d.children[0].conclusion, d.children[1].conclusion
            la, ls = _mseq(l)
            ra, rs = _mseq(r)
            if ls[p] < 1:
                fail("cut formula missing from the left premiss succedent")
            if ra[p] < 1:
                fail("cut formula missing from the right premiss antecedent")
            want_a = la + (ra - Counter((p,)))
            want_s = (ls - Counter((p,))) + rs
            if Counter(A) != want_a or Counter(S) != want_s:
                fail("Cut conclusion does not split into its premisses")
        case _ if rule not in CHECKER_ONLY:
            try:
                expected = premisses_for(rule, d.principal, d.conclusion)
            except ValueError as e:
                fail(str(e))
            arity(len(expected))
            for i, (want, child) in enumerate(zip(expected, d.children)):
                if not _same(child.conclusion, want):
                    raise DerivationError(
                        path + (i,),
                        f"premiss is {print_sequent(child.conclusion)}, "
                        f"schema requires {print_sequent(want)}",
                    )
        case _:
            fail(f"rule {rule.value} cannot appear here")

    for i, child in enumerate(d.children):
        _check(child, assumed, path + (i,))


# ---------------------------------------------------------------------------
# serialization


def derivation_to_json(d: Derivation) -> dict:
    """The derivation as nested objects, built without recursion; each
    distinct formula is printed once."""
    show = Printer()
    root: dict = {}
    todo = [(d, root)]
    while todo:
        node, out = todo.pop()
        kids: list[dict] = [{} for _ in node.children]
        out["rule"] = node.rule.value
        out["principal"] = [show.formula(f) for f in node.principal]
        out["conclusion"] = show.sequent(node.conclusion)
        out["children"] = kids
        todo.extend(zip(node.children, kids))
    return root


def derivation_from_json(data: dict) -> Derivation:
    """Rebuild a derivation from derivation_to_json output.  A node of the
    wrong shape raises DerivationError, located by its path."""
    return _node_from_json(data, ())


def _node_from_json(data, path: tuple[int, ...]) -> Derivation:
    if not isinstance(data, dict):
        raise DerivationError(path, "a derivation node must be a JSON object")
    conclusion = data.get("conclusion")
    principal = data.get("principal", [])
    children = data.get("children", [])
    if not isinstance(conclusion, str):
        raise DerivationError(path, 'a derivation node needs a "conclusion" string')
    if not (isinstance(principal, list) and all(isinstance(t, str) for t in principal)):
        raise DerivationError(path, '"principal" must be a list of formula strings')
    if not isinstance(children, list):
        raise DerivationError(path, '"children" must be a list of derivation nodes')
    try:
        rule = RuleId(data.get("rule"))
    except ValueError:
        raise DerivationError(path, f"unknown rule name {data.get('rule')!r}") from None
    return Derivation(
        conclusion=parse_sequent(conclusion),
        rule=rule,
        principal=tuple(parse_formula(t) for t in principal),
        children=tuple(_node_from_json(c, path + (i,)) for i, c in enumerate(children)),
    )
