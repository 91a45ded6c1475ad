"""Parsing and evaluation of element words.

Grammar (whitespace between tokens is ignored)::

    word   := term ('*' term)*
    term   := atom ('^' int)?
    atom   := symbol | '(' word ')'
    int    := '-'? [0-9]+
    symbol := [A-Za-z][A-Za-z0-9_]*

Parentheses nest at most ``MAX_NESTING`` deep; the parser recurses once
per level, and a deeper word is refused with :class:`WordSyntaxError`
before it can reach Python's recursion limit.

A parsed word is a tuple of ``(symbol, exponent)`` pairs in normal form:
adjacent pairs carry distinct symbols and every exponent is nonzero.
Parenthesized powers are expanded (inverting reverses the factors), so
printing a normalized word as its ``symbol^exponent`` factors joined by
``*`` (the exponent 1 left out, ``1`` for the empty word) and parsing it
back gives the word again.  Numbers, like symbols, are ASCII: ``g1^٣`` is
refused.
"""

from __future__ import annotations

import re

from .errors import ValidationError, WordSyntaxError

Word = tuple[tuple[str, int], ...]

_TOKEN = re.compile(r"\s*([A-Za-z][A-Za-z0-9_]*|-?[0-9]+|[*^()])")
_MAX_LETTERS = 10**6
MAX_NESTING = 100


def normalize_word(pairs) -> Word:
    """Merge adjacent equal symbols and drop zero exponents."""
    stack: list[list] = []
    for sym, exp in pairs:
        if exp == 0:
            continue
        if stack and stack[-1][0] == sym:
            stack[-1][1] += exp
            if stack[-1][1] == 0:
                stack.pop()
        else:
            stack.append([sym, exp])
    return tuple((s, e) for s, e in stack)


def invert_word(word: Word) -> Word:
    return tuple((s, -e) for s, e in reversed(word))


def word_power(word: Word, k: int) -> Word:
    if k == 0:
        return ()
    if k < 0:
        word, k = invert_word(word), -k
    if k * sum(abs(e) for e in (p[1] for p in word)) > _MAX_LETTERS:
        raise ValidationError("word expansion exceeds the letter budget")
    if len(word) == 1:
        return ((word[0][0], word[0][1] * k),)
    return normalize_word(word * k)


class _Parser:
    def __init__(self, text: str, alphabet: frozenset[str]):
        self.alphabet = alphabet
        self.tokens: list[tuple[str, int]] = []
        pos = 0
        while pos < len(text):
            m = _TOKEN.match(text, pos)
            if m is None:
                if text[pos:].strip() == "":
                    break
                raise WordSyntaxError(f"unexpected character {text[pos:].lstrip()[0]!r}", pos)
            self.tokens.append((m.group(1), m.start(1)))
            pos = m.end()
        self.tokens.append(("", len(text)))
        self.cursor = 0
        self.depth = 0  # parentheses open at the cursor
        # Pairs copied by powers of longer words: their sum over the whole
        # text is held to the letter budget too.
        self.copied = 0

    def peek(self) -> tuple[str, int]:
        return self.tokens[self.cursor]

    def advance(self) -> tuple[str, int]:
        tok = self.tokens[self.cursor]
        self.cursor += 1
        return tok

    def parse_word(self) -> Word:
        parts = [self.parse_term()]
        while self.peek()[0] == "*":
            self.advance()
            parts.append(self.parse_term())
        merged: list[tuple[str, int]] = []
        for p in parts:
            merged.extend(p)
        return normalize_word(merged)

    def parse_term(self) -> Word:
        atom = self.parse_atom()
        if self.peek()[0] == "^":
            self.advance()
            tok, at = self.advance()
            if not re.fullmatch(r"-?[0-9]+", tok):
                raise WordSyntaxError("expected an integer exponent", at)
            try:
                exponent = int(tok)
            except ValueError:  # more digits than int() converts
                raise WordSyntaxError("exponent has too many digits", at) from None
            if len(atom) > 1:
                self.copied += len(atom) * abs(exponent)
                if self.copied > _MAX_LETTERS:
                    raise ValidationError("word expansion exceeds the letter budget")
            return word_power(atom, exponent)
        return atom

    def parse_atom(self) -> Word:
        tok, at = self.advance()
        if tok == "(":
            if self.depth == MAX_NESTING:
                raise WordSyntaxError(f"parentheses nest deeper than {MAX_NESTING}", at)
            self.depth += 1
            inner = self.parse_word()
            self.depth -= 1
            closing, cat = self.advance()
            if closing != ")":
                raise WordSyntaxError("expected ')'", cat)
            return inner
        if tok == "1":
            # The empty word has no derivation in the base grammar; the
            # literal 1 is accepted so that printing round-trips.
            return ()
        if re.fullmatch(r"[A-Za-z][A-Za-z0-9_]*", tok):
            if tok not in self.alphabet:
                raise WordSyntaxError(f"unknown symbol {tok!r}", at)
            return ((tok, 1),)
        raise WordSyntaxError("expected a symbol or '('", at)


def parse_word(text: str, alphabet) -> Word:
    """Parse ``text`` into a normalized word over ``alphabet``."""
    parser = _Parser(text, frozenset(alphabet))
    word = parser.parse_word()
    trailing, at = parser.peek()
    if trailing != "":
        raise WordSyntaxError(f"unexpected trailing token {trailing!r}", at)
    return word


def evaluate_word_index(group, word: Word, assignment: dict[str, int]) -> int:
    """Element index of the word's product, ``assignment`` mapping each
    symbol to an element index of ``group``; the empty word gives 0.

    The word is evaluated right to left, each factor multiplied on the left
    of the product so far, so only the rows of the symbols and their
    inverses are read."""
    missing = {s for s, _ in word} - set(assignment)
    if missing:
        raise ValidationError(f"unassigned symbols: {sorted(missing)}")
    acc = 0
    for sym, exp in reversed(word):
        base = assignment[sym] if exp > 0 else group.inv(assignment[sym])
        for _ in range(abs(exp) % group.order):  # g^|G| = 1 (Lagrange)
            acc = group.mul(base, acc)
    return acc


class Presentation:
    """A finite presentation: generator symbols plus relator words."""

    __slots__ = ("generators", "relators")

    def __init__(self, generators: tuple[str, ...], relators: tuple[Word, ...]):
        if not generators:
            raise ValidationError("a presentation needs at least one generator")
        if len(set(generators)) != len(generators):
            raise ValidationError("duplicate generator symbols")
        alphabet = set(generators)
        for rel in relators:
            for sym, _ in rel:
                if sym not in alphabet:
                    raise ValidationError(f"relator uses undeclared symbol {sym!r}")
        self.generators = generators
        self.relators = relators

    @staticmethod
    def parse(generators, relator_texts) -> "Presentation":
        gens = tuple(generators)
        rels = tuple(parse_word(t, gens) for t in relator_texts)
        return Presentation(gens, rels)
