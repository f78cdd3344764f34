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

The checker still rebuilds every premiss from its rule's schema and
compares it, at every node, but at tuple speed.  A Derivation, like a
Sequent, is a NamedTuple: cheap to build and compared in C as the tuple
it is.  A node's rule is told apart by its value string (_ONE_PRINCIPAL,
_STRUCTURAL_ARITY) or by identity with the members calculus binds as
module globals, never by looking a member up on RuleId or hashing one,
each about ten times the cost of reading a global.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, NamedTuple, Optional

from .calculus import (
    ASSUMPTION,
    BOTTOM_L,
    CON_L,
    CON_R,
    CUT,
    INIT,
    WEAK_L,
    WEAK_R,
    RuleId,
)
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
from .parser import parse_formula, parse_sequent, print_formula, print_sequent


class Derivation(NamedTuple):
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


def _need(f: Formula, side: tuple[Formula, ...], where: str, count: int = 1) -> None:
    if (f not in side) if count == 1 else side.count(f) < count:
        raise ValueError(f"principal {print_formula(f)} not in {where}")


# The logical rules with one principal, by the rule's value: the class the
# principal must have and how a message names it, whether it sits in the
# antecedent, and the rule's premisses at A |- S from principal p.
_ONE_PRINCIPAL = {
    "NegL": (Neg, "a negation", True, lambda p, A, S: (Sequent(A, S + (p.f,)),)),
    "NegR": (Neg, "a negation", False, lambda p, A, S: (Sequent(A + (p.f,), S),)),
    "AndL": (And, "a conjunction", True, lambda p, A, S: (Sequent(A + (p.l, p.r), S),)),
    "AndR": (
        And,
        "a conjunction",
        False,
        lambda p, A, S: (Sequent(A, S + (p.l,)), Sequent(A, S + (p.r,))),
    ),
    "OrL": (
        Or,
        "a disjunction",
        True,
        lambda p, A, S: (Sequent(A + (p.l,), S), Sequent(A + (p.r,), S)),
    ),
    "OrR": (Or, "a disjunction", False, lambda p, A, S: (Sequent(A, S + (p.l, p.r)),)),
    "ImpL": (
        Imp,
        "an implication",
        True,
        lambda p, A, S: (Sequent(A, S + (p.l,)), Sequent(A + (p.r,), S)),
    ),
    "ImpR": (Imp, "an implication", False, lambda p, A, S: (Sequent(A + (p.l,), S + (p.r,)),)),
    "T": (Box, "boxed", True, lambda p, A, S: (Sequent(A + (p.f,), S),)),
    "Four": (Box, "boxed", False, lambda p, A, S: (Sequent(_boxed_tuple(A), (p.f,)),)),
    "D1": (Obl, "an obligation", True, lambda p, A, S: (Sequent(_boxed_tuple(A) + (p.body,), ()),)),
}


def premisses_for(rule: RuleId, principal: tuple[Formula, ...], c: Sequent) -> tuple[Sequent, ...]:
    """The exact premiss multisets of a rule instance at conclusion c.

    Only for the logical rules; raises DerivationError-free ValueError on a
    malformed instance (wrong principal shape or principal not present).
    The rule is told by its value, so no RuleId attribute is looked up.
    """
    A, S = c
    name = rule._value_
    one = _ONE_PRINCIPAL.get(name)
    if one is not None:
        cls, what, left, premisses = one
        (p,) = principal
        if not isinstance(p, cls):
            raise ValueError(f"{name} principal must be {what}")
        if left:
            _need(p, A, "antecedent")
        else:
            _need(p, S, "succedent")
        return premisses(p, A, S)
    if name == "D2" or name == "Mon":
        p1, p2 = principal
        if not (isinstance(p1, Obl) and isinstance(p2, Obl)):
            raise ValueError(f"{name} principals must be obligations")
        if name == "D2":
            _need(p1, A, "antecedent", count=2 if p1 == p2 else 1)
            _need(p2, A, "antecedent")
            boxed = _boxed_tuple(A)
            bodies = Sequent(boxed + (p1.body, p2.body), ())
        else:
            _need(p1, A, "antecedent")
            _need(p2, S, "succedent")
            boxed = _boxed_tuple(A)
            bodies = Sequent(boxed + (p1.body,), (p2.body,))
        return bodies, Sequent(boxed + (p1.cond,), (p2.cond,)), Sequent(boxed + (p2.cond,), (p1.cond,))
    raise ValueError(f"{name} has no schema premisses")


def _mseq(s: Sequent) -> tuple[Counter, Counter]:
    return Counter(s.ante), Counter(s.succ)


def same_sequent(a: Sequent, b: Sequent) -> bool:
    """Multiset equality of two sequents, side by side; equal tuples are
    equal multisets, so the count comparison runs only when they differ."""
    return a == b or _mseq(a) == _mseq(b)


# The rules without schema premisses, by value, each with its number of
# premisses.
_STRUCTURAL_ARITY = {
    "Init": 0,
    "BottomL": 0,
    "Assumption": 0,
    "WeakL": 1,
    "WeakR": 1,
    "ConL": 1,
    "ConR": 1,
    "Cut": 2,
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
    arity = _STRUCTURAL_ARITY.get(rule._value_)
    if arity is not None:
        reason = _structural_fault(d, assumed, arity)
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
        if not same_sequent(child.conclusion, want):
            raise DerivationError(
                path + (i,),
                f"premiss is {print_sequent(child.conclusion)}, "
                f"schema requires {print_sequent(want)}",
            )


def _arity_fault(d: Derivation, n: int) -> Optional[str]:
    if len(d.children) != n:
        return f"{d.rule.value} expects {n} premiss(es), got {len(d.children)}"
    return None


def _structural_fault(d: Derivation, assumed: list[Sequent], arity: int) -> Optional[str]:
    """What is wrong with the instance at d of a rule without schema
    premisses (Init, BottomL, and the checker-only Assumption, weakening,
    contraction and Cut), whose number of premisses is arity, or None."""
    A, S = d.conclusion
    reason = _arity_fault(d, arity)
    if reason is not None:
        return reason
    rule = d.rule
    if rule is INIT:
        shared = set(A) & set(S)
        if not shared:
            return "Init needs a formula on both sides"
        if d.principal and d.principal[0] not in shared:
            return "Init principal is not shared"
    elif rule is BOTTOM_L:
        if BOT not in A:
            return "BottomL needs false in the antecedent"
    elif rule is ASSUMPTION:
        c = d.conclusion
        if c not in assumed:
            counts = _mseq(c)
            if not any(_mseq(a) == counts for a in assumed):
                return f"sequent {print_sequent(c)} is not an assumption"
    elif rule is WEAK_L:
        ca, cs = _mseq(d.children[0].conclusion)
        ta, ts = _mseq(d.conclusion)
        if cs != ts:
            return "WeakL must keep the succedent"
        if ca - ta:
            return "WeakL premiss antecedent is not contained in the conclusion"
    elif rule is WEAK_R:
        ca, cs = _mseq(d.children[0].conclusion)
        ta, ts = _mseq(d.conclusion)
        if ca != ta:
            return "WeakR must keep the antecedent"
        if cs - ts:
            return "WeakR premiss succedent is not contained in the conclusion"
    elif rule is CON_L:
        if len(d.principal) != 1:
            return "ConL needs its contracted formula as principal"
        p = d.principal[0]
        if Counter(A)[p] < 1:
            return "ConL principal not in the antecedent"
        ca, cs = _mseq(d.children[0].conclusion)
        if cs != Counter(S) or ca != Counter(A) + Counter((p,)):
            return "ConL premiss must carry exactly one extra copy"
    elif rule is CON_R:
        if len(d.principal) != 1:
            return "ConR needs its contracted formula as principal"
        p = d.principal[0]
        if Counter(S)[p] < 1:
            return "ConR principal not in the succedent"
        ca, cs = _mseq(d.children[0].conclusion)
        if ca != Counter(A) or cs != Counter(S) + Counter((p,)):
            return "ConR premiss must carry exactly one extra copy"
    elif rule is CUT:
        if len(d.principal) != 1:
            return "Cut needs its cut formula as principal"
        p = d.principal[0]
        l, r = d.children[0].conclusion, d.children[1].conclusion
        if p not in l.succ:
            return "cut formula missing from the left premiss succedent"
        if p not in r.ante:
            return "cut formula missing from the right premiss antecedent"
        want = Sequent(l.ante + _without(r.ante, p), _without(l.succ, p) + r.succ)
        if not same_sequent(d.conclusion, want):
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
    root: dict = {}
    todo = [(d, root)]
    while todo:
        (conclusion, rule, principal, children), out = todo.pop()
        kids: list[dict] = [{} for _ in children]
        out["rule"] = rule._value_
        out["principal"] = [print_formula(f) for f in principal]
        out["conclusion"] = print_sequent(conclusion)
        out["children"] = kids
        todo.extend(zip(children, kids))
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
