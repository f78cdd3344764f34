import json
import random
from dataclasses import dataclass

import hypothesis.strategies as st
import pytest
from hypothesis import given

from bmdl.calculus import Universe
from bmdl.formula import (
    And,
    Atom,
    BOT,
    Bottom,
    Box,
    Formula,
    Imp,
    Neg,
    Obl,
    Or,
    Sequent,
    TOP,
    filled,
    sort_key,
)
from bmdl.kernel import derivation_from_json
from bmdl.parser import (
    ParseError,
    _tokenize,
    parse_formula,
    parse_problem,
    parse_sequent,
    print_formula,
    print_sequent,
    read_sequent_file,
)

from conftest import CORPUS, formulas, sequents

p, q, r, s = Atom("p"), Atom("q"), Atom("r"), Atom("s")


def test_atoms_and_keywords():
    assert parse_formula("p") == p
    assert parse_formula("dhe_2x") == Atom("dhe_2x")
    assert parse_formula("false") == BOT
    assert parse_formula("true") == TOP
    assert parse_formula("  p  ") == p


def test_operator_precedence():
    assert parse_formula("p & q | r -> s") == Imp(Or(And(p, q), r), s)
    assert parse_formula("p -> q -> r") == Imp(p, Imp(q, r))
    assert parse_formula("p | q & r") == Or(p, And(q, r))
    assert parse_formula("p & q & r") == And(And(p, q), r)
    assert parse_formula("~[]p & q") == And(Neg(Box(p)), q)
    assert parse_formula("[]~p") == Box(Neg(p))
    assert parse_formula("(p -> q) & r") == And(Imp(p, q), r)


def test_obligation_syntax():
    assert parse_formula("O(p / q)") == Obl(p, q)
    assert parse_formula("O(p -> q / ~r)") == Obl(Imp(p, q), Neg(r))
    assert parse_formula("~O(false / q)") == Neg(Obl(BOT, q))
    assert parse_formula("O(O(p / q) / r)") == Obl(Obl(p, q), r)


def test_sequent_syntax():
    assert parse_sequent("p, q |- r") == Sequent((p, q), (r,))
    assert parse_sequent("|- p") == Sequent((), (p,))
    assert parse_sequent("p |-") == Sequent((p,), ())
    assert parse_sequent("|-") == Sequent((), ())
    assert parse_sequent("p, p |- q") == Sequent((p, p), (q,))


@pytest.mark.parametrize(
    "text,line,col",
    [
        ("p &", 1, 4),
        ("(p", 1, 3),
        ("p -> ", 1, 6),
        ("p - q", 1, 3),
        ("[p", 1, 1),
        ("p | | q", 1, 5),
        ("p @ q", 1, 3),
        ("O(p, q)", 1, 4),
        ("p q", 1, 3),
    ],
)
def test_error_positions(text, line, col):
    with pytest.raises(ParseError) as err:
        parse_formula(text)
    assert err.value.line == line
    assert err.value.col == col


def test_error_mentions_expectation():
    with pytest.raises(ParseError) as err:
        parse_sequent("p, |- q")
    assert err.value.expected


@given(formulas)
def test_formula_print_parse_round_trip(f):
    assert parse_formula(print_formula(f)) == f


@given(sequents)
def test_sequent_print_parse_round_trip(s):
    assert parse_sequent(print_sequent(s)) == s


def test_printing_is_minimal_on_parentheses():
    assert print_formula(Imp(Or(And(p, q), r), s)) == "p & q | r -> s"
    assert print_formula(And(p, Or(q, r))) == "p & (q | r)"
    assert print_formula(Imp(Imp(p, q), r)) == "(p -> q) -> r"
    assert print_formula(Neg(And(p, q))) == "~(p & q)"
    assert print_formula(Box(Imp(p, q))) == "[](p -> q)"
    assert print_formula(TOP) == "true"
    assert print_formula(Neg(Neg(p))) == "~~p"


def test_unicode_printing():
    f = Imp(And(Box(p), Neg(q)), Obl(BOT, q))
    assert print_formula(f, unicode=True) == "□p ∧ ¬q → O(⊥ / q)"
    assert print_sequent(Sequent((p,), (q,)), unicode=True) == "p ⊢ q"


def test_problem_files():
    prob = parse_problem(
        """
        # the two clauses share a condition
        assume O(p / r)
        assume O(q / r)
        assume O(p / r)
        goal |- O(p & q / r)
        mode prove
        """
    )
    assert prob.assumptions == (Obl(p, r), Obl(q, r))
    assert prob.goal == Sequent((), (Obl(And(p, q), r),))
    assert prob.mode == "prove"


def test_problem_mode_defaults():
    assert parse_problem("assume p").mode == "consistency"
    assert parse_problem("goal |- p").mode == "prove"
    assert parse_problem("").assumptions == ()


def test_problem_errors_carry_the_file_line():
    with pytest.raises(ParseError) as err:
        parse_problem("assume p\n\nassume q &\n")
    assert err.value.line == 3
    with pytest.raises(ParseError):
        parse_problem("mode sideways")
    with pytest.raises(ParseError):
        parse_problem("prove |- p")


def test_trailing_input_is_rejected():
    with pytest.raises(ParseError):
        parse_formula("p |- q")
    with pytest.raises(ParseError):
        parse_sequent("p |- q |- r")


@pytest.mark.parametrize(
    "text,line,col",
    [
        ("assume p &", 1, 11),
        ("  assume   q |", 1, 15),
        ("assume p &   # a comment", 1, 11),
        ("# head\n\n\tassume (p  # unclosed", 3, 11),
        ("assume p\ngoal  p |- q |- r # two turnstiles", 2, 14),
        ("goal p, |- q", 1, 9),
        ("  mode  sideways # not a mode", 1, 9),
        ("   prove |- p", 1, 4),
        # a tab ends a directive as a space does, and counts one column
        ("goal\t|- p &", 1, 12),
        ("assume\t\tp &", 1, 12),
        ("goal \t p, |- q", 1, 11),
        ("mode\tsideways", 1, 6),
        # a repeated goal or mode directive, at the directive
        ("goal |- p\ngoal |- q", 2, 1),
        ("assume p\n  goal\t|- p  # first\n\ngoal |- p", 4, 1),
        ("mode prove\nassume p\n   mode prove", 3, 4),
        ("mode consistency\ngoal |- p\nmode\tcountermodel", 3, 1),
    ],
)
def test_problem_errors_carry_the_file_column(text, line, col):
    with pytest.raises(ParseError) as err:
        parse_problem(text)
    assert (err.value.line, err.value.col) == (line, col)


def test_a_directive_followed_by_a_tab_is_read():
    prob = parse_problem("assume\tp\ngoal\t|- p\nmode\t consistency")
    assert prob.assumptions == (p,)
    assert prob.goal == Sequent((), (p,))
    assert prob.mode == "consistency"


@pytest.mark.parametrize(
    "text,line,col",
    [
        ("p |- q &", 1, 9),
        ("   p |- q &   # trailing comment", 1, 12),
        ("# comment\n\n  \t p - q", 3, 7),
    ],
)
def test_sequent_file_errors_carry_the_file_column(tmp_path, text, line, col):
    f = tmp_path / "bad.seq"
    f.write_text(text)
    with pytest.raises(ParseError) as err:
        read_sequent_file(f)
    assert (err.value.line, err.value.col) == (line, col)


# ---------------------------------------------------------------------------
# references: the character-by-character tokenizer and the recursive printer
# that the one-scan tokenizer and print_formula/print_sequent replaced, kept
# to hold them to; the reference reads the Unicode symbols the printer
# writes as single-character tokens, as _tokenize does


@dataclass(frozen=True)
class Token:
    kind: str
    text: str
    line: int
    col: int


_SIMPLE = {
    "(": "LPAREN", ")": "RPAREN", ",": "COMMA", "/": "SLASH", "~": "NOT", "&": "AND",
    "¬": "NOT", "□": "BOX", "∧": "AND", "∨": "OR", "→": "ARROW", "⊥": "FALSE", "⊤": "TRUE", "⊢": "TURNSTILE",
}
_KEYWORDS = {"false": "FALSE", "true": "TRUE"}


def reference_tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    line, col = 1, 1
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        start_col = col
        if c in _SIMPLE:
            tokens.append(Token(_SIMPLE[c], c, line, start_col))
            i += 1
            col += 1
        elif c == "|":
            if i + 1 < n and text[i + 1] == "-":
                tokens.append(Token("TURNSTILE", "|-", line, start_col))
                i += 2
                col += 2
            else:
                tokens.append(Token("OR", "|", line, start_col))
                i += 1
                col += 1
        elif c == "-":
            if i + 1 < n and text[i + 1] == ">":
                tokens.append(Token("ARROW", "->", line, start_col))
                i += 2
                col += 2
            else:
                raise ParseError("stray '-'", line, start_col, ("->",))
        elif c == "[":
            if i + 1 < n and text[i + 1] == "]":
                tokens.append(Token("BOX", "[]", line, start_col))
                i += 2
                col += 2
            else:
                raise ParseError("stray '['", line, start_col, ("[]",))
        elif c == "O":
            tokens.append(Token("OBL", "O", line, start_col))
            i += 1
            col += 1
        elif c.isalpha() and c.islower():
            j = i + 1
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            tokens.append(Token(_KEYWORDS.get(word, "IDENT"), word, line, start_col))
            col += j - i
            i = j
        else:
            raise ParseError(f"unexpected character {c!r}", line, start_col)
    tokens.append(Token("EOF", "", line, col))
    return tokens


_ASCII = {"not": "~", "box": "[]", "and": " & ", "or": " | ", "imp": " -> ", "bot": "false", "top": "true"}
_UNICODE = {"not": "¬", "box": "□", "and": " ∧ ", "or": " ∨ ", "imp": " → ", "bot": "⊥", "top": "⊤"}


def _show(f: Formula, level: int, sym) -> str:
    match f:
        case Bottom():
            return sym["bot"]
        case Neg(Bottom()):
            return sym["top"]
        case Atom(name):
            out, prec = name, 5
        case Obl(b, c):
            out, prec = f"O({_show(b, 0, sym)} / {_show(c, 0, sym)})", 5
        case Neg(g):
            out, prec = sym["not"] + _show(g, 4, sym), 4
        case Box(g):
            out, prec = sym["box"] + _show(g, 4, sym), 4
        case And(l, r):
            out, prec = _show(l, 3, sym) + sym["and"] + _show(r, 4, sym), 3
        case Or(l, r):
            out, prec = _show(l, 2, sym) + sym["or"] + _show(r, 3, sym), 2
        case Imp(l, r):
            out, prec = _show(l, 2, sym) + sym["imp"] + _show(r, 1, sym), 1
        case _:
            raise TypeError(f"not a formula: {f!r}")
    return f"({out})" if prec < level else out


def reference_print(f: Formula, unicode: bool = False) -> str:
    return _show(f, 0, _UNICODE if unicode else _ASCII)


def reference_print_sequent(s: Sequent, unicode: bool = False) -> str:
    ante = ", ".join(reference_print(f, unicode) for f in s.ante)
    succ = ", ".join(reference_print(f, unicode) for f in s.succ)
    sep = "⊢" if unicode else "|-"
    return " ".join(part for part in (ante, sep, succ) if part)


def _tokens_or_error(tokenize, text: str):
    try:
        return [tuple(t) if isinstance(t, tuple) else (t.kind, t.text, t.line, t.col) for t in tokenize(text)]
    except ParseError as e:
        return ("error", e.message, e.line, e.col, e.expected)


# Pieces of text near the grammar: its tokens (the Unicode symbols among
# them) and their prefixes, words that only start like keywords, letters the tokenizer must accept or refuse
# (non-ASCII lowercase, capitals, titlecase, digits that are not decimal,
# decimal digits of other scripts), blanks and other characters.
_PIECES = [
    "p", "q", "dhe_2x", "x1", "_", "O", "Ox", "OO", "O(", "(", ")", ",", "/", "~", "&",
    "|", "|-", "|->", "-", "->", "[", "[]", "]", "false", "true", "falsey", "truex", "pfalse",
    "é", "ßx", "π", "Ä", "É", "A", "ǅ", "²", "٣", "0", "7", "@", "#", ":", ">",
    " ", "  ", "\t", "\n", "\r", "\r\n", "\x0b", "　",
    "¬", "□", "∧", "∨", "→", "⊥", "⊤", "⊢", "⊥x", "p⊢q",
]
texts = st.one_of(
    st.lists(st.sampled_from(_PIECES), max_size=30).map("".join),
    st.text(max_size=20),
)


@given(texts)
def test_tokenizer_matches_the_reference(text):
    assert _tokens_or_error(_tokenize, text) == _tokens_or_error(reference_tokenize, text)


@pytest.mark.parametrize(
    "text",
    [
        "", "  ", "p\n", "a\n  \n", "Ox", "falsey", "true1", "é_1 & Äb", "p - q", "[p", "p²q", "٣", "p |->q",
        "ǅx", "ªb", "ᵃ", "ⅰ", "²", "_p", "\x0bp",
    ],
)
def test_tokenizer_matches_the_reference_on_edge_cases(text):
    assert _tokens_or_error(_tokenize, text) == _tokens_or_error(reference_tokenize, text)


@given(formulas)
def test_printer_matches_the_reference(f):
    for unicode in (False, True):
        assert print_formula(f, unicode) == reference_print(f, unicode)


@given(formulas)
def test_unicode_printing_reparses(f):
    """The Unicode symbols the printer writes are read back as the ASCII
    ones, so a report printed with --unicode can be checked again."""
    assert parse_formula(print_formula(f, True)) == f


@given(sequents)
def test_unicode_sequent_printing_reparses(s):
    assert parse_sequent(print_sequent(s, True)) == s


@given(st.lists(formulas, max_size=6), st.integers(0, 2**32))
def test_one_printer_reused_across_shared_subformulas(fs, seed):
    """One printer for every report: the formulas of a report share
    subformulas, and with them the texts kept on filled nodes; every
    formula and every subformula, in any order, prints as the reference
    prints it alone."""
    todo = [g for f in fs for g in Universe(Sequent((f,), ())).formulas] + fs
    random.Random(seed).shuffle(todo)
    for unicode in (False, True):
        for g in todo:
            assert print_formula(g, unicode) == reference_print(g, unicode)
        for s in (Sequent(tuple(fs[:2]), tuple(fs[2:])), Sequent((), tuple(fs))):
            assert print_sequent(s, unicode) == reference_print_sequent(s, unicode)


def test_printing_once_leaves_a_built_formula_unfilled():
    """print_formula and print_sequent never hash a formula built outside
    the parser, so never pay its lazy fill, and keep no text on it; in a
    sequent whose first formula is filled and a later one is not, the
    filled one keeps its ASCII text and the built one stays unfilled."""
    f = Imp(Neg(Atom("p")), Obl(Box(Atom("q")), TOP))
    built = (f, f.l, f.r, f.r.body)
    print_formula(f)
    print_sequent(Sequent((f,), (f,)), unicode=True)
    assert not any(hasattr(g, "_k") for g in built)
    first = parse_formula("[]p & q")
    for unicode in (False, True):
        for s in (Sequent((first, f), ()), Sequent((first,), (f,)), Sequent((), (first, f))):
            assert print_sequent(s, unicode) == reference_print_sequent(s, unicode)
    assert not any(hasattr(g, "_k") or hasattr(g, "_t") for g in built)
    assert first._t == "[]p & q"


def _rebuilt(f: Formula) -> Formula:
    """f rebuilt through the plain constructors, its cache left to the lazy
    fill."""
    match f:
        case Atom(name):
            return Atom(name)
        case Bottom():
            return Bottom()
        case Neg(g) | Box(g):
            return type(f)(_rebuilt(g))
        case And(l, r) | Or(l, r) | Imp(l, r) | Obl(l, r):
            return type(f)(_rebuilt(l), _rebuilt(r))


def _assert_filled_as_lazily(f: Formula) -> None:
    """Every node of a parsed formula has its cache filled already, with
    the values the lazy fill gives a copy built apart."""
    for g in Universe(Sequent((f,), ())).formulas:
        lazy = _rebuilt(g)
        assert g == lazy
        assert (g._k, g._h) == (sort_key(lazy), hash(lazy))


@given(formulas)
def test_parsed_nodes_are_filled_as_the_lazy_fill_fills_them(f):
    _assert_filled_as_lazily(parse_formula(print_formula(f)))


def _sides(s: Sequent) -> list[Formula]:
    return list(s.ante + s.succ)


def _corpus_formulas(path) -> tuple[list[Formula], list[str]]:
    """What the parser reads from one corpus file: its formulas, and the
    texts they were read from."""
    if path.suffix == ".seq":
        return _sides(read_sequent_file(path)), [path.read_text()]
    if path.suffix == ".mdl":
        prob = parse_problem(path.read_text())
        return list(prob.assumptions) + (_sides(prob.goal) if prob.goal else []), [path.read_text()]
    data = json.loads(path.read_text())
    if path.name == "manifest.json":
        expects = [e.get("expect", {}) for e in data["entries"]]
        facts = [fact["formula"] for x in expects for fact in x.get("facts", [])]
        assumed = [a for x in expects for a in x.get("assumptions", [])]
        fs = [parse_formula(t) for t in facts] + [g for t in assumed for g in _sides(parse_sequent(t))]
        return fs, facts + assumed
    if "rule" not in data:
        return [], []  # a model file
    fs, nodes = [], [derivation_from_json(data)]
    texts, todo = [], [data]
    while nodes:
        n = nodes.pop()
        fs += _sides(n.conclusion) + list(n.principal)
        nodes += n.children
        node = todo.pop()
        texts += [node["conclusion"], *node["principal"]]
        todo += node["children"]
    return fs, texts


@pytest.mark.parametrize("path", sorted(CORPUS.iterdir()), ids=lambda p: p.name)
def test_every_corpus_file_parses_as_the_references_read_it(path):
    fs, texts = _corpus_formulas(path)
    for text in texts:
        for line in text.splitlines():
            assert _tokens_or_error(_tokenize, line) == _tokens_or_error(reference_tokenize, line)
    for f in fs:
        _assert_filled_as_lazily(f)
        assert print_formula(f) == reference_print(f)


# The ASCII text kept on formula nodes: made by the first print of a filled
# node, read by every later print, never made while parsing or filling.


def _arguments(f: Formula) -> tuple[Formula, ...]:
    match f:
        case Neg(g) | Box(g):
            return (g,)
        case And(l, r) | Or(l, r) | Imp(l, r) | Obl(l, r):
            return (l, r)
    return ()


def _nodes(fs) -> list[Formula]:
    """Every node object of the formulas fs, each once, without recursion."""
    out, seen, todo = [], set(), list(fs)
    while todo:
        g = todo.pop()
        if id(g) not in seen:
            seen.add(id(g))
            out.append(g)
            todo.extend(_arguments(g))
    return out


def _print_each_as_the_reference(nodes, rng: random.Random) -> None:
    """Print every node, in the order of nodes, alone or as a one-formula
    sequent on either side, drawn at random, and compare with the
    reference."""
    for g in nodes:
        want = reference_print(g)
        how = rng.randrange(3)
        if how == 0:
            assert print_formula(g) == want
        elif how == 1:
            assert print_sequent(Sequent((g,), ())) == f"{want} |-"
        else:
            assert print_sequent(Sequent((), (g,))) == f"|- {want}"


@given(st.lists(formulas, min_size=1, max_size=4), st.integers(0, 2**32))
def test_kept_texts_of_parsed_nodes_print_as_the_reference_in_any_order(fs, seed):
    """Parsed nodes, and filled nodes made over them that share them, print
    as the reference prints them whatever order and way they are printed
    in, and each then keeps its own text."""
    rng = random.Random(seed)
    goal = parse_sequent(", ".join(reference_print(f) for f in fs) + " |- " + reference_print(fs[0]))
    parsed = list(goal.ante + goal.succ)
    made = [filled(rng.choice((And, Or, Imp, Obl)), rng.choice(parsed), rng.choice(parsed)) for _ in fs]
    made += [filled(rng.choice((Neg, Box)), rng.choice(parsed + made)) for _ in fs]
    nodes = _nodes(parsed + made)
    for _ in range(2):
        rng.shuffle(nodes)
        _print_each_as_the_reference(nodes, rng)
    assert all(g._t == reference_print(g) for g in nodes)


@given(st.lists(formulas, min_size=1, max_size=4), st.integers(0, 2**32))
def test_kept_texts_of_filled_and_canonical_formulas_print_as_the_reference(fs, seed):
    """Built formulas once the lazy fill has filled them, and the formulas a
    universe makes again (Universe.canonical) over nodes printed before,
    print as the reference prints them."""
    rng = random.Random(seed)
    again = [_rebuilt(f) for f in fs]  # equal, other objects: canonical() remakes
    u = Universe(Sequent(tuple(fs), tuple(again)))  # its walk hashes, so fills, every node
    nodes = _nodes(fs + again)
    rng.shuffle(nodes)
    _print_each_as_the_reference(nodes, rng)
    canonical = _nodes(u.canonical())
    rng.shuffle(canonical)
    _print_each_as_the_reference(canonical, rng)
    assert all(g._t == reference_print(g) for g in nodes + canonical)


@given(st.lists(formulas, min_size=1, max_size=4), st.integers(0, 2**32))
def test_unicode_printing_reads_no_kept_ascii_text(fs, seed):
    """Unicode is rendered as before, from Unicode texts only, whether the
    nodes keep their ASCII texts already or not; ASCII is unchanged after."""
    rng = random.Random(seed)
    goal = parse_sequent(", ".join(reference_print(f) for f in fs) + " |-")
    nodes = _nodes(goal.ante)
    rng.shuffle(nodes)
    for g in nodes[: len(nodes) // 2]:
        assert print_formula(g, unicode=True) == reference_print(g, unicode=True)
    for g in nodes:
        assert print_formula(g) == reference_print(g)
    for g in nodes:
        assert print_formula(g, unicode=True) == reference_print(g, unicode=True)
    for s in (goal, Sequent((), goal.ante)):
        assert print_sequent(s, unicode=True) == reference_print_sequent(s, unicode=True)
        assert print_sequent(s) == reference_print_sequent(s)


def test_parsing_a_long_chain_makes_no_text():
    """Parsing fills every node but makes no text: a chain of n conjuncts
    would otherwise hold prefix texts of about n squared characters."""
    f = parse_formula(" & ".join(f"p{i}" for i in range(3000)))
    nodes = _nodes([f])
    assert len(nodes) == 3000 + 2999
    assert all(g._t is None for g in nodes)
