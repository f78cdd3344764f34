"""Concrete syntax: parser and printer for formulas, sequents, sequent files
and problem files.

Grammar (whitespace-insensitive; operators and keywords are ASCII, or the
Unicode symbols the printer writes, read as the ASCII ones; atoms need not
be ASCII):

    formula  :=  or_f ("->" formula)?            right associative
    or_f     :=  and_f ("|" and_f)*              left associative
    and_f    :=  unary ("&" unary)*              left associative
    unary    :=  "~" unary | "[]" unary
              |  "O" "(" formula "/" formula ")"
              |  "false" | "true" | atom | "(" formula ")"
    atom     :=  a lowercase letter, then letters, digits and "_"

    sequent  :=  formulas? "|-" formulas?        comma-separated sides
    problem  :=  lines of "assume f" / "goal s" / "mode m" / "# comment"

"¬", "□", "∧", "∨", "→", "⊥", "⊤" and "⊢" are read as "~", "[]", "&",
"|", "->", "false", "true" and "|-", so what the printer writes in Unicode
reads back to what it printed.

"true" is sugar for ~false and is restored by the printer.  Formulas may
nest at most MAX_NESTING levels deep, counting each "~" and "[]" and each
formula started inside another (in parentheses, in "O( / )" or right of
"->"); deeper input is a ParseError rather than a stack overflow in the
parser or in a later recursive pass over the formula.

Reading is one scan: a compiled regex (_TOKEN) splits the text into
blanks and candidate tokens in a single call, and _tokenize turns each
candidate into a plain (kind, text, line, column) tuple or raises the
ParseError of the first bad character.  Letters may be non-ASCII; "O",
"true" and "false" are tokens only as whole words ("Ox" is "O" then "x",
"falsey" an atom).  The recursive-descent parser then builds each node
through its constructor, children first; atoms of one parse are shared.

Writing is two functions, print_formula and print_sequent, over one
rendering rule (_render): a node's text is made from its arguments' texts,
whose precedence follows from their classes.  ASCII text is made at print
time, never while parsing, and kept on the node (formula.set_text): the
first print of a node sets it, on the node and its arguments, and every
later print reads it, so the goal a report prints is rendered once
however many times the report shows it, whoever built the formula.
Unicode is rendered whole and keeps nothing; it prints only report
headers, facts and audit messages, while every derivation and
countermodel body is printed in ASCII.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import NamedTuple

from .formula import (
    BOT,
    And,
    Atom,
    Bottom,
    Box,
    Formula,
    Imp,
    Neg,
    Obl,
    Or,
    Sequent,
    TOP,
    set_text,
)


MAX_NESTING = 200


class ParseError(ValueError):
    def __init__(self, message: str, line: int, col: int, expected: tuple[str, ...] = ()):
        self.message = message
        self.line = line
        self.col = col
        self.expected = tuple(expected)
        suffix = f" (expected {', '.join(self.expected)})" if expected else ""
        super().__init__(f"{line}:{col}: {message}{suffix}")


# Blanks, then one candidate token: a word that starts with a word character
# other than a decimal digit, "_" or an ASCII capital (_tokenize refuses a
# start that is no lowercase letter), a two-character operator, or any
# other single character, newline included.  Trailing blanks match nothing
# and are left over.
_TOKEN = re.compile(r"([ \t\r]*)([^\W\d_A-Z]\w*|\|-|->|\[\]|[^ \t\r])")

_KINDS = {
    "(": "LPAREN",
    ")": "RPAREN",
    ",": "COMMA",
    "/": "SLASH",
    "~": "NOT",
    "&": "AND",
    "|": "OR",
    "|-": "TURNSTILE",
    "->": "ARROW",
    "[]": "BOX",
    "O": "OBL",
    "false": "FALSE",
    "true": "TRUE",
    # the symbols the printer writes with unicode=True
    "¬": "NOT",
    "□": "BOX",
    "∧": "AND",
    "∨": "OR",
    "→": "ARROW",
    "⊥": "FALSE",
    "⊤": "TRUE",
    "⊢": "TURNSTILE",
}


def _tokenize(text: str) -> list[tuple[str, str, int, int]]:
    """The tokens of text as (kind, text, line, column) tuples, ending in
    an EOF token placed after the last character."""
    tokens = []
    append = tokens.append
    line, col = 1, 1
    for blanks, word in _TOKEN.findall(text):
        col += len(blanks)
        kind = _KINDS.get(word)
        if kind is None:
            c = word[0]
            if c == "\n":
                line += 1
                col = 1
                continue
            if not (c.isalpha() and c.islower()):
                raise _bad_character(c, line, col)
            kind = "IDENT"
        append((kind, word, line, col))
        col += len(word)
    append(("EOF", "", line, len(text) - text.rfind("\n")))
    return tokens


def _bad_character(c: str, line: int, col: int) -> ParseError:
    if c == "-":
        return ParseError("stray '-'", line, col, ("->",))
    if c == "[":
        return ParseError("stray '['", line, col, ("[]",))
    return ParseError(f"unexpected character {c!r}", line, col)


def _unexpected(tok: tuple, what: str) -> ParseError:
    kind, text, line, col = tok
    return ParseError(
        f"unexpected {text!r}" if kind != "EOF" else "unexpected end of input", line, col, (what,)
    )


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0
        self.atoms: dict[str, Atom] = {}

    def peek(self) -> str:
        """The kind of the next token."""
        return self.tokens[self.pos][0]

    def expect(self, kind: str, what: str) -> None:
        tok = self.tokens[self.pos]
        if tok[0] != kind:
            raise _unexpected(tok, what)
        self.pos += 1

    def deeper(self) -> None:
        """Enter one more nesting level; the caller leaves it again."""
        if self.depth == MAX_NESTING:
            _, _, line, col = self.tokens[self.pos]
            raise ParseError(f"formula nested more than {MAX_NESTING} levels deep", line, col)
        self.depth += 1

    def formula(self) -> Formula:
        self.deeper()
        out = self.or_f()
        if self.tokens[self.pos][0] == "ARROW":
            self.pos += 1
            out = Imp(out, self.formula())
        self.depth -= 1
        return out

    def or_f(self) -> Formula:
        out = self.and_f()
        while self.tokens[self.pos][0] == "OR":
            self.pos += 1
            out = Or(out, self.and_f())
        return out

    def and_f(self) -> Formula:
        out = self.unary()
        while self.tokens[self.pos][0] == "AND":
            self.pos += 1
            out = And(out, self.unary())
        return out

    def unary(self) -> Formula:
        tok = self.tokens[self.pos]
        kind = tok[0]
        self.pos += 1
        if kind == "IDENT":
            name = tok[1]
            atom = self.atoms.get(name)
            if atom is None:
                atom = self.atoms[name] = Atom(name)
            return atom
        if kind == "NOT" or kind == "BOX":
            self.deeper()
            f = self.unary()
            self.depth -= 1
            return (Neg if kind == "NOT" else Box)(f)
        if kind == "LPAREN":
            f = self.formula()
            self.expect("RPAREN", ")")
            return f
        if kind == "OBL":
            self.expect("LPAREN", "(")
            body = self.formula()
            self.expect("SLASH", "/")
            cond = self.formula()
            self.expect("RPAREN", ")")
            return Obl(body, cond)
        if kind == "FALSE":
            return BOT
        if kind == "TRUE":
            return TOP
        raise _unexpected(tok, "a formula")

    def formula_list(self, stop: str) -> tuple[Formula, ...]:
        if self.peek() == stop:
            return ()
        out = [self.formula()]
        while self.peek() == "COMMA":
            self.pos += 1
            out.append(self.formula())
        return tuple(out)

    def sequent(self) -> Sequent:
        ante = self.formula_list("TURNSTILE")
        self.expect("TURNSTILE", "|-")
        succ = self.formula_list("EOF")
        return Sequent(ante, succ)

    def end(self) -> None:
        kind, text, line, col = self.tokens[self.pos]
        if kind != "EOF":
            raise ParseError(f"trailing input {text!r}", line, col, ("end of input",))


def parse_formula(text: str) -> Formula:
    p = _Parser(text)
    f = p.formula()
    p.end()
    return f


def parse_sequent(text: str) -> Sequent:
    p = _Parser(text)
    s = p.sequent()
    p.end()
    return s


# ---------------------------------------------------------------------------
# printing

_ASCII = {"not": "~", "box": "[]", "and": " & ", "or": " | ", "imp": " -> ", "bot": "false", "top": "true"}
_UNICODE = {"not": "¬", "box": "□", "and": " ∧ ", "or": " ∨ ", "imp": " → ", "bot": "⊥", "top": "⊤"}

# precedence levels: Imp 1 < Or 2 < And 3 < unary 4 < atomic 5; a child
# printed where a level is required is parenthesised when its own is lower.
# No level required is above 4, so "true", atomic though it is a negation,
# may count as unary.
_LEVEL = {Atom: 5, Bottom: 5, Obl: 5, Neg: 4, Box: 4, And: 3, Or: 2, Imp: 1}
# Per binary connective: its symbol and the levels required of its left
# and right arguments.
_BINARY = {And: ("and", 3, 4), Or: ("or", 2, 3), Imp: ("imp", 2, 1)}


def _render(f: Formula, sym: dict[str, str], keep: bool) -> str:
    """The rendering rule: the text of f in the symbols sym, made from its
    arguments' texts (one Python frame per nesting level, as in the
    parser).  With keep, each argument's text is read from the node, or
    made and kept on it; without, every argument is rendered anew and
    nothing is kept."""
    t = type(f)
    if t is Atom:
        return f.name
    if t is And or t is Or or t is Imp:
        args = f.l, f.r
    elif t is Neg or t is Box:
        if t is Neg and type(f.f) is Bottom:
            return sym["top"]
        args = (f.f,)
    elif t is Obl:
        args = f.body, f.cond
    elif t is Bottom:
        return sym["bot"]
    else:
        raise TypeError(f"not a formula: {f!r}")
    texts = []
    for a in args:
        if keep:
            text = a._t
            if text is None:
                text = _render(a, sym, True)
                set_text(a, text)
        else:
            text = _render(a, sym, False)
        texts.append(text)
    if t is Neg or t is Box:
        g, (text,) = f.f, texts
        return sym["not" if t is Neg else "box"] + (text if _LEVEL[type(g)] >= 4 else f"({text})")
    if t is Obl:
        return f"O({texts[0]} / {texts[1]})"
    op, left, right = _BINARY[t]
    (l, r), (lt, rt) = args, texts
    return (
        (lt if _LEVEL[type(l)] >= left else f"({lt})")
        + sym[op]
        + (rt if _LEVEL[type(r)] >= right else f"({rt})")
    )


def _ascii(f: Formula) -> str:
    """The ASCII text of f: read from the node, or made and kept on it and
    on its arguments."""
    t = f._t
    if t is None:
        t = _render(f, _ASCII, True)
        set_text(f, t)
    return t


def print_formula(f: Formula, unicode: bool = False) -> str:
    """Minimal-parenthesis rendering; the ASCII form reparses to f, and so
    does the Unicode form.  The ASCII text is kept on the node; Unicode
    text is rendered whole and kept nowhere."""
    if unicode:
        return _render(f, _UNICODE, False)
    return f._t or _ascii(f)


def print_sequent(s: Sequent, unicode: bool = False) -> str:
    """The sequent's formulas as print_formula prints them; in ASCII, joined
    straight from the texts kept on its formulas."""
    if unicode:
        return _sequent_text([print_formula(f, True) for f in s.ante], [print_formula(f, True) for f in s.succ], True)
    return _sequent_text([f._t or _ascii(f) for f in s.ante], [f._t or _ascii(f) for f in s.succ], False)


def _sequent_text(ante_texts: list[str], succ_texts: list[str], unicode: bool) -> str:
    ante = ", ".join(ante_texts)
    succ = ", ".join(succ_texts)
    sep = "⊢" if unicode else "|-"
    if ante and succ:
        return f"{ante} {sep} {succ}"
    if ante:
        return f"{ante} {sep}"
    if succ:
        return f"{sep} {succ}"
    return sep


# ---------------------------------------------------------------------------
# problem files and sequent files

MODES = ("prove", "consistency", "countermodel")


class ProblemFile(NamedTuple):
    """Parsed problem file: an assumption set, an optional goal, a mode."""

    assumptions: tuple[Formula, ...]
    goal: Sequent | None = None
    mode: str = "consistency"


def _content_lines(text: str):
    """(line number, column of its first character, content) for each line
    of text that holds something once its # comment and its surrounding
    blanks are cut off."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0]
        line = body.strip()
        if line:
            yield lineno, len(body) - len(body.lstrip()) + 1, line


def _reanchored(e: ParseError, lineno: int, col: int) -> ParseError:
    """e, raised in a one-line text that starts at (lineno, col) of a file,
    placed at the file's line and column."""
    return ParseError(e.message, lineno, col + e.col - 1, e.expected)


def parse_problem(text: str) -> ProblemFile:
    assumptions: dict[Formula, None] = {}
    goal: Sequent | None = None
    mode: str | None = None
    for lineno, col, line in _content_lines(text):
        # the directive ends at the first blank, a tab as much as a space
        head, *rest = line.split(None, 1)
        arg = rest[0] if rest else ""
        arg_col = col + len(line) - len(arg)
        if (head == "mode" and mode is not None) or (head == "goal" and goal is not None):
            raise ParseError(f"repeated {head!r} directive", lineno, col)
        if head == "mode":
            if arg not in MODES:
                raise ParseError(f"unknown mode {arg!r}", lineno, arg_col, MODES)
            mode = arg
        elif head == "assume" or head == "goal":
            try:
                if head == "assume":
                    assumptions[parse_formula(arg)] = None
                else:
                    goal = parse_sequent(arg)
            except ParseError as e:
                raise _reanchored(e, lineno, arg_col) from None
        else:
            raise ParseError(f"unknown directive {head!r}", lineno, col, ("assume", "goal", "mode"))
    if mode is None:
        mode = "consistency" if goal is None else "prove"
    return ProblemFile(tuple(assumptions), goal, mode)


def read_sequent_file(path: Path) -> Sequent:
    """First meaningful line of a .seq file, # comments and blanks skipped."""
    for lineno, col, line in _content_lines(path.read_text()):
        try:
            return parse_sequent(line)
        except ParseError as e:
            raise _reanchored(e, lineno, col) from None
    raise ParseError("file holds no sequent", 1, 1)
