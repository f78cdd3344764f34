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
candidate tokens in a single findall, blanks and newlines skipped, and
_tokenize maps the candidates to their kinds in one pass, or raises the
ParseError of the first bad character.  Tokens carry no position: a
token's line and column are made from its offset only when a ParseError
is raised at it (_position).  Letters may be non-ASCII; "O", "true" and
"false" are tokens only as whole words ("Ox" is "O" then "x", "falsey"
an atom).  The recursive-descent parser reads kinds and words by index
and builds each node through its constructor, children first; atoms of
one parse are shared.

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
from itertools import islice
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


# One candidate token: a word that starts with a word character other than
# a decimal digit, "_" or an ASCII capital (_tokenize refuses a start that
# is no lowercase letter), a two-character operator, or any other single
# character but a blank or a newline, which match nothing and are skipped.
_TOKEN = re.compile(r"[^\W\d_A-Z]\w*|\|-|->|\[\]|[^ \t\r\n]")

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
# Words that start with an ASCII lowercase letter are atoms, if no keyword.
_ASCII_ATOM = dict.fromkeys("abcdefghijklmnopqrstuvwxyz", "IDENT")


def _tokenize(text: str) -> tuple[list[str], list[str]]:
    """The kinds and the texts of the tokens of text, as two lists that end
    in an EOF token.  A token's line and column are made only for an error
    (_position)."""
    words = _TOKEN.findall(text)
    kind, ascii_atom = _KINDS.get, _ASCII_ATOM.get
    kinds = [kind(w) or ascii_atom(w[0]) or _atom_kind(w) for w in words]
    if None in kinds:
        i = kinds.index(None)
        raise _bad_character(words[i][0], *_position(text, i))
    kinds.append("EOF")
    words.append("")
    return kinds, words


def _atom_kind(word: str):
    """The kind of a word that is no keyword and starts with no ASCII
    lowercase letter: IDENT if it starts with a lowercase letter, else
    None."""
    c = word[0]
    return "IDENT" if c.isalpha() and c.islower() else None


def _position(text: str, i: int) -> tuple[int, int]:
    """The line and column of the i-th token of text; the EOF token's are
    those of the end of text."""
    at = len(text)
    for m in islice(_TOKEN.finditer(text), i, i + 1):
        at = m.start()
    return text.count("\n", 0, at) + 1, at - text.rfind("\n", 0, at)


def _bad_character(c: str, line: int, col: int) -> ParseError:
    if c == "-":
        return ParseError("stray '-'", line, col, ("->",))
    if c == "[":
        return ParseError("stray '['", line, col, ("[]",))
    return ParseError(f"unexpected character {c!r}", line, col)


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.kinds, self.words = _tokenize(text)
        self.pos = 0
        self.depth = 0
        self.atoms: dict[str, Atom] = {}

    def error(self, i: int, message: str, expected: tuple[str, ...] = ()) -> ParseError:
        """The ParseError placed at the i-th token."""
        return ParseError(message, *_position(self.text, i), expected)

    def unexpected(self, i: int, what: str) -> ParseError:
        message = f"unexpected {self.words[i]!r}" if self.kinds[i] != "EOF" else "unexpected end of input"
        return self.error(i, message, (what,))

    def expect(self, kind: str, what: str) -> None:
        i = self.pos
        if self.kinds[i] != kind:
            raise self.unexpected(i, what)
        self.pos = i + 1

    def too_deep(self) -> ParseError:
        return self.error(self.pos, f"formula nested more than {MAX_NESTING} levels deep")

    # Each formula and each "~" or "[]" enters one more nesting level, and
    # leaves it again once parsed.

    def formula(self) -> Formula:
        if self.depth == MAX_NESTING:
            raise self.too_deep()
        self.depth += 1
        out = self.or_f()
        if self.kinds[self.pos] == "ARROW":
            self.pos += 1
            out = Imp(out, self.formula())
        self.depth -= 1
        return out

    def or_f(self) -> Formula:
        out = self.and_f()
        while self.kinds[self.pos] == "OR":
            self.pos += 1
            out = Or(out, self.and_f())
        return out

    def and_f(self) -> Formula:
        out = self.unary()
        while self.kinds[self.pos] == "AND":
            self.pos += 1
            out = And(out, self.unary())
        return out

    def unary(self) -> Formula:
        i = self.pos
        kind = self.kinds[i]
        self.pos = i + 1
        if kind == "IDENT":
            name = self.words[i]
            atom = self.atoms.get(name)
            if atom is None:
                atom = self.atoms[name] = Atom(name)
            return atom
        if kind == "NOT" or kind == "BOX":
            if self.depth == MAX_NESTING:
                raise self.too_deep()
            self.depth += 1
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
        raise self.unexpected(i, "a formula")

    def formula_list(self, stop: str) -> tuple[Formula, ...]:
        if self.kinds[self.pos] == stop:
            return ()
        out = [self.formula()]
        while self.kinds[self.pos] == "COMMA":
            self.pos += 1
            out.append(self.formula())
        return tuple(out)

    def sequent(self) -> Sequent:
        ante = self.formula_list("TURNSTILE")
        self.expect("TURNSTILE", "|-")
        succ = self.formula_list("EOF")
        return Sequent(ante, succ)

    def end(self) -> None:
        i = self.pos
        if self.kinds[i] != "EOF":
            raise self.error(i, f"trailing input {self.words[i]!r}", ("end of input",))


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
DIRECTIVES = ("assume", "goal", "mode")


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


def looks_like_problem(text: str) -> bool:
    """Whether the first line of text that holds something is a problem
    file directive."""
    for _, _, line in _content_lines(text):
        return line.split(None, 1)[0] in DIRECTIVES
    return False


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
            raise ParseError(f"unknown directive {head!r}", lineno, col, DIRECTIVES)
    if mode is None:
        mode = "consistency" if goal is None else "prove"
    return ProblemFile(tuple(assumptions), goal, mode)


def read_sequent_file(path: Path) -> Sequent:
    """First meaningful line of a .seq file, # comments and blanks skipped."""
    for lineno, col, line in _content_lines(path.read_text(encoding="utf-8-sig")):
        try:
            return parse_sequent(line)
        except ParseError as e:
            raise _reanchored(e, lineno, col) from None
    raise ParseError("file holds no sequent", 1, 1)
