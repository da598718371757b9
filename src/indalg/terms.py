"""Terms over the language {nu_c (left multiplication by c), g (binary)}.

Terms are immutable ASTs: ``Var(i)`` for the variable x_i (i >= 1),
``Nu(c, t)`` for nu_c applied to t, and ``G(t1, t2)``.  Evaluation plugs in
reduced words and interprets g through a lookup object ``h`` exposing
``h.g(w1, w2)``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from typing import Union

from . import words
from .words import Word


# Parsing and every term walker recurse once per nesting level, so deeper
# input would end in a RecursionError; parse_term refuses it up front.
MAX_NESTING = 256


class ArityError(ValueError):
    """Raised when an argument tuple is shorter than the term's max variable."""


@dataclass(frozen=True)
class Var:
    index: int

    def __repr__(self) -> str:
        return f"x{self.index}"


@dataclass(frozen=True)
class Nu:
    coeff: Word
    child: "Term"

    def __repr__(self) -> str:
        return f"nu({words.format_word(self.coeff)}, {self.child!r})"


@dataclass(frozen=True)
class G:
    left: "Term"
    right: "Term"

    def __repr__(self) -> str:
        return f"g({self.left!r}, {self.right!r})"


Term = Union[Var, Nu, G]


@dataclass(frozen=True)
class TermMeta:
    arity: int  # largest variable index occurring
    star: int  # index of the rightmost variable
    content: frozenset[int]  # generators appearing in nu-coefficients


@lru_cache(maxsize=None)
def meta(t: Term) -> TermMeta:
    if isinstance(t, Var):
        if t.index < 1:
            raise ValueError(f"variable index must be >= 1, got {t.index}")
        return TermMeta(t.index, t.index, frozenset())
    if isinstance(t, Nu):
        m = meta(t.child)
        return TermMeta(m.arity, m.star, m.content | words.gen_content(t.coeff))
    if isinstance(t, G):
        ml, mr = meta(t.left), meta(t.right)
        return TermMeta(max(ml.arity, mr.arity), mr.star, ml.content | mr.content)
    raise TypeError(f"not a term: {t!r}")


def depth(t: Term) -> int:
    if isinstance(t, Var):
        return 1
    if isinstance(t, Nu):
        return 1 + depth(t.child)
    if isinstance(t, G):
        return 1 + max(depth(t.left), depth(t.right))
    raise TypeError(f"not a term: {t!r}")


def evaluate(t: Term, args: tuple[Word, ...], h) -> Word:
    """Evaluate t at the given words.  Extra arguments beyond meta(t).arity are
    ignored (projection semantics)."""
    if len(args) < meta(t).arity:
        raise ArityError(f"term needs {meta(t).arity} arguments, got {len(args)}")
    return _eval(t, args, h)


def _eval(t: Term, args: tuple[Word, ...], h) -> Word:
    if isinstance(t, Var):
        return args[t.index - 1]
    if isinstance(t, Nu):
        return words.mul(t.coeff, _eval(t.child, args, h))
    left = _eval(t.left, args, h)
    right = _eval(t.right, args, h)
    return h.g(left, right)


def format_term(t: Term) -> str:
    if isinstance(t, Var):
        return f"x{t.index}"
    if isinstance(t, Nu):
        return f"nu({words.format_word(t.coeff)}, {format_term(t.child)})"
    return f"g({format_term(t.left)}, {format_term(t.right)})"


def parse_term(text: str) -> Term:
    """Parse ``x<i>``, ``nu(<word>, <term>)`` and ``g(<term>, <term>)``.

    Raises ValueError on malformed text and on parentheses nested more than
    MAX_NESTING deep."""
    s = text.strip()
    _check_nesting(s)
    t, rest = _parse(s)
    if rest.strip():
        raise ValueError(f"trailing input {rest!r}")
    return t


def _check_nesting(s: str) -> None:
    if s.count("(") <= MAX_NESTING:
        return
    level = 0
    for ch in s:
        if ch == "(":
            level += 1
            if level > MAX_NESTING:
                raise ValueError(f"term nested more than {MAX_NESTING} deep")
        elif ch == ")":
            level -= 1


def _parse(s: str) -> tuple[Term, str]:
    s = s.lstrip()
    if s.startswith("nu(") or s.startswith("g("):
        head, body = s.split("(", 1)
        if head == "nu":
            word_text, rest = _until_comma(body)
            child, rest = _parse(rest)
            rest = rest.lstrip()
            if not rest.startswith(")"):
                raise ValueError("expected ')' closing nu(...)")
            return Nu(words.parse_word(word_text), child), rest[1:]
        left, rest = _parse(body)
        rest = rest.lstrip()
        if not rest.startswith(","):
            raise ValueError("expected ',' inside g(...)")
        right, rest = _parse(rest[1:])
        rest = rest.lstrip()
        if not rest.startswith(")"):
            raise ValueError("expected ')' closing g(...)")
        return G(left, right), rest[1:]
    if s.startswith("x"):
        i = 1
        while i < len(s) and s[i].isdigit():
            i += 1
        if i == 1:
            raise ValueError(f"bad variable in {s!r}")
        return Var(int(s[1:i])), s[i:]
    raise ValueError(f"cannot parse term at {s!r}")


def _until_comma(s: str) -> tuple[str, str]:
    i = s.find(",")
    if i < 0:
        raise ValueError("expected ',' after nu coefficient")
    return s[:i], s[i + 1 :]


def sample_terms(
    max_depth: int,
    max_var: int,
    coeff_pool: list[Word],
    seed: int,
    count: int,
) -> list[Term]:
    """Deterministic seeded corpus of distinct terms.

    Depth <= max_depth, variables <= max_var, nu-coefficients drawn from
    coeff_pool.  When max_depth >= 2 the corpus contains at least one G node.
    """
    if max_depth < 1 or max_var < 1 or count < 1:
        raise ValueError("max_depth, max_var and count must all be >= 1")
    rng = random.Random(seed)
    pool = [words.reduce(w) for w in coeff_pool]

    def gen_term(budget: int) -> Term:
        if budget <= 1:
            return Var(rng.randint(1, max_var))
        roll = rng.random()
        if roll < 0.25:
            return Var(rng.randint(1, max_var))
        if roll < 0.55 and pool:
            return Nu(pool[rng.randrange(len(pool))], gen_term(budget - 1))
        return G(gen_term(budget - 1), gen_term(budget - 1))

    seen: set[Term] = set()
    out: list[Term] = []
    attempts = 0
    while len(out) < count:
        attempts += 1
        if attempts > 200 * count + 1000:
            raise ValueError("term space too small for requested distinct count")
        t = gen_term(max_depth)
        if t not in seen:
            seen.add(t)
            out.append(t)

    if max_depth >= 2 and not any(_has_g(t) for t in out):
        while True:
            t = G(gen_term(max_depth - 1), gen_term(max_depth - 1))
            if t not in seen or count == 1:
                out[-1] = t
                break
    return out


def _has_g(t: Term) -> bool:
    if isinstance(t, G):
        return True
    if isinstance(t, Nu):
        return _has_g(t.child)
    return False
