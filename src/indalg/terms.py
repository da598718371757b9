"""Terms over the language {nu_c (left multiplication by c), g (binary)}.

Terms are immutable ASTs: ``Var(i)`` for the variable x_i (i >= 1),
``Nu(c, t)`` for nu_c applied to t, and ``G(t1, t2)``.  Evaluation plugs in
reduced words and interprets g through a lookup object ``h`` exposing
``h.g(w1, w2)``.

Nodes are hash-consed: a constructor returns the live node with the same
kind and fields if there is one, so structurally equal terms are the same
object, and equality and hashing are by identity, O(1) at any size.  The
intern table holds its nodes weakly, so a node lives exactly as long as some
caller keeps it; there is no process-wide cache.  Each node stores its
``arity`` (largest variable index), ``star`` (index of the rightmost
variable), ``content`` (generators in its nu-coefficients) and ``depth``,
computed once from its children; ``meta`` reads them.
"""

from __future__ import annotations

import random
import re
import weakref
from typing import Union

from . import words
from .words import Word


# format_term and evaluate recurse once per nesting level, so deeper input
# would end in a RecursionError; parse_term refuses it up front.
MAX_NESTING = 256


class ArityError(ValueError):
    """Raised when an argument tuple is shorter than the term's max variable."""


# (kind, fields...) -> the live node; children in a key are nodes, so a key
# hashes and compares in time independent of the subterms' sizes.
_NODES: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


class _Node:
    """Fields every node stores; ``bad`` is the leftmost variable index < 1
    in the term, or None.  Nodes are shared, so they refuse assignment."""

    __slots__ = ("arity", "star", "content", "depth", "bad", "__weakref__")

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a term")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of a term")

    def __repr__(self) -> str:
        return format_term(self)


_set = object.__setattr__


def _fill(node: _Node, arity: int, star: int, content: frozenset[int],
          depth: int, bad: int | None) -> None:
    _set(node, "arity", arity)
    _set(node, "star", star)
    _set(node, "content", content)
    _set(node, "depth", depth)
    _set(node, "bad", bad)


class Var(_Node):
    __slots__ = ("index",)

    def __new__(cls, index: int) -> Var:
        key = (Var, index)
        node = _NODES.get(key)
        if node is None:
            node = _NODES[key] = object.__new__(cls)
            _set(node, "index", index)
            # a bad index is kept, not refused: meta reports it
            _fill(node, index, index, frozenset(), 1, None if index >= 1 else index)
        return node


class Nu(_Node):
    __slots__ = ("coeff", "child")

    def __new__(cls, coeff: Word, child: Term) -> Nu:
        key = (Nu, coeff, child)
        node = _NODES.get(key)
        if node is None:
            if not isinstance(child, _Node):
                raise TypeError(f"not a term: {child!r}")
            node = _NODES[key] = object.__new__(cls)
            _set(node, "coeff", coeff)
            _set(node, "child", child)
            _fill(node, child.arity, child.star,
                  _union(child.content, words.gen_content(coeff)),
                  child.depth + 1, child.bad)
        return node


class G(_Node):
    __slots__ = ("left", "right")

    def __new__(cls, left: Term, right: Term) -> G:
        key = (G, left, right)
        node = _NODES.get(key)
        if node is None:
            for arg in (left, right):
                if not isinstance(arg, _Node):
                    raise TypeError(f"not a term: {arg!r}")
            node = _NODES[key] = object.__new__(cls)
            _set(node, "left", left)
            _set(node, "right", right)
            _fill(node, max(left.arity, right.arity), right.star,
                  _union(left.content, right.content),
                  max(left.depth, right.depth) + 1,
                  right.bad if left.bad is None else left.bad)
        return node


Term = Union[Var, Nu, G]


def _union(a: frozenset[int], b: frozenset[int]) -> frozenset[int]:
    if b <= a:
        return a
    return b if a <= b else a | b


def meta(t: Term) -> Term:
    """Check t and return it: its ``arity``, ``star`` and ``content`` are
    stored on the node.  A variable x_i with i < 1 anywhere in t raises
    ValueError, naming the leftmost one."""
    try:
        bad = t.bad
    except AttributeError:
        raise TypeError(f"not a term: {t!r}") from None
    if bad is not None:
        raise ValueError(f"variable index must be >= 1, got {bad}")
    return t


def depth(t: Term) -> int:
    if not isinstance(t, _Node):
        raise TypeError(f"not a term: {t!r}")
    return t.depth


def evaluate(t: Term, args: tuple[Word, ...], h) -> Word:
    """Evaluate t at the given words.  Extra arguments beyond meta(t).arity are
    ignored (projection semantics)."""
    arity = meta(t).arity
    if len(args) < arity:
        raise ArityError(f"term needs {arity} arguments, got {len(args)}")
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
    t, end = _parse(s)
    if end < len(s):  # s is stripped, so what is left holds a non-space
        raise ValueError(f"trailing input {s[end:]!r}")
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


# at a term's start: ``nu(``, ``g(`` or a variable, after optional space
_TERM_HEAD = re.compile(r"\s*(?:(nu\()|(g\()|x(\d*))")
# after a term: the ``,`` or ``)`` of the frame it completes
_CLOSER = re.compile(r"\s*([,)])")
_SPACE = re.compile(r"\s*")  # \s is exactly str.isspace
_NU_HEAD, _G_HEAD = 1, 2
_OPEN_NU, _OPEN_G, _G_LEFT_DONE = range(3)


def _parse(s: str) -> tuple[Term, int]:
    """The term starting at s[0] and the index just past it, in one left to
    right pass.  Each open ``nu(`` or ``g(`` is a frame on an explicit stack:
    ``(_OPEN_NU, coefficient text)``, ``(_OPEN_G, None)`` or, once its left
    argument is read, ``(_G_LEFT_DONE, left)``.  A coefficient is parsed when
    its ``nu(...)`` closes, so errors come in the order of a recursive
    descent that parses the coefficient last."""
    n = len(s)
    frames: list[tuple[int, object]] = []
    i = 0
    while True:
        m = _TERM_HEAD.match(s, i)
        if m is None:
            i = _SPACE.match(s, i).end()
            raise ValueError(f"cannot parse term at {s[i:]!r}")
        head = m.lastindex
        if head == _NU_HEAD:
            comma = s.find(",", m.end())
            if comma < 0:
                raise ValueError("expected ',' after nu coefficient")
            frames.append((_OPEN_NU, s[m.end() : comma]))
            i = comma + 1
            continue
        if head == _G_HEAD:
            frames.append((_OPEN_G, None))
            i = m.end()
            continue
        start, j = m.start(3), m.end()
        while j < n and s[j].isdigit():  # digits that \d leaves out, such as "²"
            j += 1
        if j == start:
            raise ValueError(f"bad variable in {s[start - 1 :]!r}")
        t: Term = Var(int(s[start:j]))
        i = j
        # close every frame that t completes, up to a g( awaiting its right side
        while frames:
            m = _CLOSER.match(s, i)
            closer = m.group(1) if m else None
            kind, held = frames[-1]
            if kind == _OPEN_G:
                if closer != ",":
                    raise ValueError("expected ',' inside g(...)")
                frames[-1] = (_G_LEFT_DONE, t)
                i = m.end()
                break
            if closer != ")":
                what = "nu" if kind == _OPEN_NU else "g"
                raise ValueError(f"expected ')' closing {what}(...)")
            frames.pop()
            t = Nu(words.parse_word(held), t) if kind == _OPEN_NU else G(held, t)
            i = m.end()
        else:
            return t, i


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
    while isinstance(t, Nu):
        t = t.child
    return isinstance(t, G)
