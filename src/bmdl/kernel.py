"""Derivation checker.

A Derivation is a tree of rule nodes over multiset sequents.  The checker
verifies every node against its rule schema with exact multiset matching:
for the transitional rules the premiss antecedent must equal the boxed part
of the conclusion antecedent plus exactly the schema's active formulas.  No
slack; weakening or contraction has to appear as an explicit WeakL/WeakR or
ConL/ConR node.  Assumption leaves are accepted only when their sequent is
(multiset-)equal to one of the supplied assumption sequents.

Tuple equality comes before multiset counts.  Equal tuples are equal
multisets, so a premiss, an Assumption leaf or a Cut conclusion is first
compared as the tuples it is, and Counters are built only when that test
fails; the verdict and the message are those of the multiset comparison
either way.  A Cut's expected conclusion is built by removing the first
copy of the cut formula from the left premiss's succedent and from the
right premiss's antecedent, which is the order discharge emits, so its
Cut/Four/Assumption scaffolding checks without a Counter.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Optional

from .calculus import RuleId
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
        if (f not in side) if count == 1 else side.count(f) < count:
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


# The rules without schema premisses, each with its number of premisses.
_STRUCTURAL_ARITY = {
    RuleId.INIT: 0,
    RuleId.BOTTOM_L: 0,
    RuleId.ASSUMPTION: 0,
    RuleId.WEAK_L: 1,
    RuleId.WEAK_R: 1,
    RuleId.CON_L: 1,
    RuleId.CON_R: 1,
    RuleId.CUT: 2,
}


def check_derivation(d: Derivation, assumptions: Iterable[Sequent] = ()) -> bool:
    """Check every node; returns True or raises DerivationError at the first
    offending node."""
    assumed = list(assumptions)
    _check(d, assumed, ())
    return True


def _check(d: Derivation, assumed: list[Sequent], path: tuple[int, ...]) -> None:
    _check_node(d, assumed, path)
    for i, child in enumerate(d.children):
        _check(child, assumed, path + (i,))


def _check_node(d: Derivation, assumed: list[Sequent], path: tuple[int, ...]) -> None:
    """Check the rule instance at d, the node at path, against the
    conclusions of its children."""
    rule = d.rule
    if rule in _STRUCTURAL_ARITY:
        reason = _structural_fault(d, assumed)
        if reason is not None:
            raise DerivationError(path, reason)
        return
    try:
        expected = premisses_for(rule, d.principal, d.conclusion)
    except ValueError as e:
        raise DerivationError(path, str(e))
    reason = _arity_fault(d, len(expected))
    if reason is not None:
        raise DerivationError(path, reason)
    for i, (want, child) in enumerate(zip(expected, d.children)):
        if not _same(child.conclusion, want):
            raise DerivationError(
                path + (i,),
                f"premiss is {print_sequent(child.conclusion)}, "
                f"schema requires {print_sequent(want)}",
            )


def _arity_fault(d: Derivation, n: int) -> Optional[str]:
    if len(d.children) != n:
        return f"{d.rule.value} expects {n} premiss(es), got {len(d.children)}"
    return None


def _structural_fault(d: Derivation, assumed: list[Sequent]) -> Optional[str]:
    """What is wrong with the instance at d of a rule without schema
    premisses (Init, BottomL, and the checker-only Assumption, weakening,
    contraction and Cut), or None."""
    A, S = d.conclusion.ante, d.conclusion.succ
    reason = _arity_fault(d, _STRUCTURAL_ARITY[d.rule])
    if reason is not None:
        return reason
    match d.rule:
        case RuleId.INIT:
            shared = set(A) & set(S)
            if not shared:
                return "Init needs a formula on both sides"
            if d.principal and d.principal[0] not in shared:
                return "Init principal is not shared"
        case RuleId.BOTTOM_L:
            if BOT not in A:
                return "BottomL needs false in the antecedent"
        case RuleId.ASSUMPTION:
            c = d.conclusion
            if c not in assumed:
                counts = _mseq(c)
                if not any(_mseq(a) == counts for a in assumed):
                    return f"sequent {print_sequent(c)} is not an assumption"
        case RuleId.WEAK_L:
            ca, cs = _mseq(d.children[0].conclusion)
            ta, ts = _mseq(d.conclusion)
            if cs != ts:
                return "WeakL must keep the succedent"
            if ca - ta:
                return "WeakL premiss antecedent is not contained in the conclusion"
        case RuleId.WEAK_R:
            ca, cs = _mseq(d.children[0].conclusion)
            ta, ts = _mseq(d.conclusion)
            if ca != ta:
                return "WeakR must keep the antecedent"
            if cs - ts:
                return "WeakR premiss succedent is not contained in the conclusion"
        case RuleId.CON_L:
            if len(d.principal) != 1:
                return "ConL needs its contracted formula as principal"
            p = d.principal[0]
            if Counter(A)[p] < 1:
                return "ConL principal not in the antecedent"
            ca, cs = _mseq(d.children[0].conclusion)
            if cs != Counter(S) or ca != Counter(A) + Counter((p,)):
                return "ConL premiss must carry exactly one extra copy"
        case RuleId.CON_R:
            if len(d.principal) != 1:
                return "ConR needs its contracted formula as principal"
            p = d.principal[0]
            if Counter(S)[p] < 1:
                return "ConR principal not in the succedent"
            ca, cs = _mseq(d.children[0].conclusion)
            if ca != Counter(A) or cs != Counter(S) + Counter((p,)):
                return "ConR premiss must carry exactly one extra copy"
        case RuleId.CUT:
            if len(d.principal) != 1:
                return "Cut needs its cut formula as principal"
            p = d.principal[0]
            l, r = d.children[0].conclusion, d.children[1].conclusion
            if p not in l.succ:
                return "cut formula missing from the left premiss succedent"
            if p not in r.ante:
                return "cut formula missing from the right premiss antecedent"
            want = Sequent(l.ante + _without(r.ante, p), _without(l.succ, p) + r.succ)
            if not _same(d.conclusion, want):
                return "Cut conclusion does not split into its premisses"
    return None


def _without(fs: tuple[Formula, ...], f: Formula) -> tuple[Formula, ...]:
    """fs with its first copy of f removed; f must occur in fs."""
    i = fs.index(f)
    return fs[:i] + fs[i + 1:]


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
