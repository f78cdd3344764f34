"""Concrete syntax: parser and printer for formulas, sequents and problem files.

Grammar (ASCII, whitespace-insensitive):

    formula  :=  or_f ("->" formula)?            right associative
    or_f     :=  and_f ("|" and_f)*              left associative
    and_f    :=  unary ("&" unary)*              left associative
    unary    :=  "~" unary | "[]" unary
              |  "O" "(" formula "/" formula ")"
              |  "false" | "true" | atom | "(" formula ")"
    atom     :=  [a-z][a-zA-Z0-9_]*

    sequent  :=  formulas? "|-" formulas?        comma-separated sides
    problem  :=  lines of "assume f" / "goal s" / "mode m" / "# comment"

"true" is sugar for ~false and is restored by the printer.  Formulas may
nest at most MAX_NESTING levels deep, counting each "~" and "[]" and each
formula started inside another (in parentheses, in "O( / )" or right of
"->"); deeper input is a ParseError rather than a stack overflow in the
parser or in a later recursive pass over the formula.
"""

from __future__ import annotations

from dataclasses import dataclass

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


@dataclass(frozen=True)
class Token:
    kind: str
    text: str
    line: int
    col: int


_SIMPLE = {
    "(": "LPAREN",
    ")": "RPAREN",
    ",": "COMMA",
    "/": "SLASH",
    "~": "NOT",
    "&": "AND",
}

_KEYWORDS = {"false": "FALSE", "true": "TRUE"}


def _tokenize(text: str) -> list[Token]:
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


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str, what: str) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(
                f"unexpected {tok.text!r}" if tok.kind != "EOF" else "unexpected end of input",
                tok.line,
                tok.col,
                (what,),
            )
        return self.next()

    def deeper(self) -> None:
        """Enter one more nesting level; the caller leaves it again."""
        if self.depth == MAX_NESTING:
            tok = self.peek()
            raise ParseError(
                f"formula nested more than {MAX_NESTING} levels deep", tok.line, tok.col
            )
        self.depth += 1

    def formula(self) -> Formula:
        self.deeper()
        out = self.or_f()
        if self.peek().kind == "ARROW":
            self.next()
            out = Imp(out, self.formula())
        self.depth -= 1
        return out

    def or_f(self) -> Formula:
        out = self.and_f()
        while self.peek().kind == "OR":
            self.next()
            out = Or(out, self.and_f())
        return out

    def and_f(self) -> Formula:
        out = self.unary()
        while self.peek().kind == "AND":
            self.next()
            out = And(out, self.unary())
        return out

    def unary(self) -> Formula:
        tok = self.peek()
        if tok.kind in ("NOT", "BOX"):
            self.next()
            self.deeper()
            f = self.unary()
            self.depth -= 1
            return Neg(f) if tok.kind == "NOT" else Box(f)
        if tok.kind == "OBL":
            self.next()
            self.expect("LPAREN", "(")
            body = self.formula()
            self.expect("SLASH", "/")
            cond = self.formula()
            self.expect("RPAREN", ")")
            return Obl(body, cond)
        if tok.kind == "FALSE":
            self.next()
            return BOT
        if tok.kind == "TRUE":
            self.next()
            return TOP
        if tok.kind == "IDENT":
            self.next()
            return Atom(tok.text)
        if tok.kind == "LPAREN":
            self.next()
            f = self.formula()
            self.expect("RPAREN", ")")
            return f
        raise ParseError(
            f"unexpected {tok.text!r}" if tok.kind != "EOF" else "unexpected end of input",
            tok.line,
            tok.col,
            ("a formula",),
        )

    def formula_list(self, stop: str) -> tuple[Formula, ...]:
        if self.peek().kind == stop:
            return ()
        out = [self.formula()]
        while self.peek().kind == "COMMA":
            self.next()
            out.append(self.formula())
        return tuple(out)

    def sequent(self) -> Sequent:
        ante = self.formula_list("TURNSTILE")
        self.expect("TURNSTILE", "|-")
        succ = self.formula_list("EOF")
        return Sequent(ante, succ)


def parse_formula(text: str) -> Formula:
    p = _Parser(text)
    f = p.formula()
    tok = p.peek()
    if tok.kind != "EOF":
        raise ParseError(f"trailing input {tok.text!r}", tok.line, tok.col, ("end of input",))
    return f


def parse_sequent(text: str) -> Sequent:
    p = _Parser(text)
    s = p.sequent()
    tok = p.peek()
    if tok.kind != "EOF":
        raise ParseError(f"trailing input {tok.text!r}", tok.line, tok.col, ("end of input",))
    return s


# ---------------------------------------------------------------------------
# printing

_ASCII = {"not": "~", "box": "[]", "and": " & ", "or": " | ", "imp": " -> ", "bot": "false", "top": "true"}
_UNICODE = {"not": "¬", "box": "□", "and": " ∧ ", "or": " ∨ ", "imp": " → ", "bot": "⊥", "top": "⊤"}

# precedence levels: Imp 1 < Or 2 < And 3 < unary 4 < atomic 5


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


def print_formula(f: Formula, unicode: bool = False) -> str:
    """Minimal-parenthesis rendering; the ASCII form reparses to f."""
    return _show(f, 0, _UNICODE if unicode else _ASCII)


def print_sequent(s: Sequent, unicode: bool = False) -> str:
    return _sequent_text(
        [print_formula(f, unicode) for f in s.ante],
        [print_formula(f, unicode) for f in s.succ],
        unicode,
    )


class Printer:
    """print_formula and print_sequent for one report that prints the same
    formulas many times: each distinct formula is rendered once, then looked
    up."""

    def __init__(self, unicode: bool = False):
        self.unicode = unicode
        self.texts: dict[Formula, str] = {}

    def formula(self, f: Formula) -> str:
        text = self.texts.get(f)
        if text is None:
            text = self.texts[f] = print_formula(f, self.unicode)
        return text

    def sequent(self, s: Sequent) -> str:
        return _sequent_text(
            [self.formula(f) for f in s.ante], [self.formula(f) for f in s.succ], self.unicode
        )


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
# problem files

MODES = ("prove", "consistency", "countermodel")


@dataclass(frozen=True)
class ProblemFile:
    """Parsed problem file: an assumption set, an optional goal, a mode."""

    assumptions: tuple[Formula, ...]
    goal: Sequent | None = None
    mode: str = "consistency"


def parse_problem(text: str) -> ProblemFile:
    assumptions: dict[Formula, None] = {}
    goal: Sequent | None = None
    mode: str | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head, _, rest = line.partition(" ")
        rest = rest.strip()
        try:
            if head == "assume":
                assumptions[parse_formula(rest)] = None
            elif head == "goal":
                goal = parse_sequent(rest)
            elif head == "mode":
                if rest not in MODES:
                    raise ParseError(f"unknown mode {rest!r}", lineno, 1, MODES)
                mode = rest
            else:
                raise ParseError(f"unknown directive {head!r}", lineno, 1, ("assume", "goal", "mode"))
        except ParseError as e:
            # re-anchor formula-level errors at the problem-file line
            raise ParseError(e.message, lineno, e.col, e.expected) from None
    if mode is None:
        mode = "consistency" if goal is None else "prove"
    return ProblemFile(tuple(assumptions), goal, mode)
