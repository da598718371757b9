"""Terms over the language {nu_c (left multiplication by c), g (binary)}.

Terms are immutable ASTs: ``Var(i)`` for the variable x_i (i >= 1),
``Nu(c, t)`` for nu_c applied to t, and ``G(t1, t2)``.  Evaluation plugs in
reduced words and interprets g through a lookup object ``h`` exposing
``h.g(w1, w2)``.

Nodes are hash-consed: a constructor returns the live node with the same
kind and fields if there is one, so structurally equal terms are the same
object, and equality and hashing are by identity, O(1) at any size.  The
intern table is a plain dict from a node's key to a plain ``weakref.ref`` to
the node, so a node lives exactly as long as some caller keeps it; there is
no process-wide cache.  The ref's callback, ``_drop`` bound to the key,
deletes the entry when the node dies, but only while the dict still holds
that same ref: a term built again meanwhile has a newer entry, which stays.

A node refuses assignment, so a constructor does not assign through it.
It fills an instance of a private twin class, which has the same slots and
plain attribute assignment, then switches that instance's ``__class__`` to
the public class and only then enters it in the table: the plain slot
stores and the class switch cost about a third of what a call of
``object.__setattr__`` per field did.  ``type(node)`` is always ``Var``, ``Nu`` or
``G``.

``parse_term`` reads coefficient texts through a table (text -> word) that
its caller owns and passes in: a caller parsing many terms, such as one
``classify`` payload, parses each distinct coefficient text once and hands
the same word tuple to every ``Nu`` built from it.  Within one term it
builds each variable once per digit text.  Each node stores its
``arity`` (largest variable index), ``star`` (index of the rightmost
variable) and ``content`` (generators in its nu-coefficients), computed
once from its children; ``meta`` reads them.
"""

from __future__ import annotations

import random
import re
import weakref
from functools import partial
from typing import Union

from . import words
from .words import Word


# format_term and evaluate recurse once per nesting level, so deeper input
# would end in a RecursionError; parse_term refuses it up front.
MAX_NESTING = 256

# sampled trees and their h-indices grow exponentially in depth: on a 2-vCPU
# guest, verify-counterexample with 200 terms of depth 12 takes ~2.3 s, with
# 5 terms of depth 14 it took 48 s, and depth 16 did not finish in 90 s
MAX_SAMPLE_DEPTH = 12


class ArityError(ValueError):
    """Raised when an argument tuple is shorter than the term's max variable."""


# (kind, fields...) -> a weakref to the live node, whose callback is _drop
# bound to the key; children in a key are nodes, so a key hashes and compares
# in time independent of the subterms' sizes.  A plain dict costs one ``get``
# and one call per lookup, where a WeakValueDictionary runs Python code per
# access.  A plain ref with a ``partial`` callback is built in C; a
# ``KeyedRef`` runs a Python-level ``__new__`` and ``__init__``.  A node
# enters the table only once it is whole and of its public class.
_NODES: dict[tuple, weakref.ref] = {}


def _drop(key: tuple, ref: weakref.ref, nodes: dict = _NODES) -> None:
    """Callback of a dead node's ref: delete its entry unless the key now
    holds a newer ref.  The table is bound here, not read as a global, so a
    callback that runs while the interpreter clears this module finds it."""
    if nodes.get(key) is ref:
        del nodes[key]


class _Node:
    """Fields every node stores; ``bad`` is the leftmost variable index < 1
    in the term, or None.  Nodes are shared, so they refuse assignment and
    deletion of any field, ``__class__`` included.

    A constructor builds a node as an instance of its class's twin
    (``_twin``), fills the slots by plain assignment and then sets
    ``__class__`` to the public class, before any caller or the intern
    table can see the node."""

    __slots__ = ("arity", "star", "content", "bad", "__weakref__")

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a term")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of a term")

    def __repr__(self) -> str:
        return format_term(self)


def _twin(cls: type) -> type:
    """A subclass of _Node with cls's own slots and the plain ``object``
    assignment: an instance's ``__class__`` may be switched to cls, since the
    two lay out their slots alike."""
    return type(f"_{cls.__name__}Twin", (_Node,), {
        "__slots__": cls.__slots__, "__setattr__": object.__setattr__,
        "__delattr__": object.__delattr__})


_new = object.__new__
_ref = weakref.ref
_NO_GENERATORS: frozenset[int] = frozenset()


class Var(_Node):
    __slots__ = ("index",)

    def __new__(cls, index: int) -> Var:
        key = (Var, index)
        ref = _NODES.get(key)
        if ref is not None:
            node = ref()
            if node is not None:
                return node
        node = _new(_VAR_TWIN)
        node.index = node.arity = node.star = index
        node.content = _NO_GENERATORS
        # a bad index is kept, not refused: meta reports it
        node.bad = None if index >= 1 else index
        node.__class__ = Var
        _NODES[key] = _ref(node, partial(_drop, key))
        return node


class Nu(_Node):
    __slots__ = ("coeff", "child")

    def __new__(cls, coeff: Word, child: Term) -> Nu:
        key = (Nu, coeff, child)
        ref = _NODES.get(key)
        if ref is not None:
            node = ref()
            if node is not None:
                return node
        if not isinstance(child, _Node):
            raise TypeError(f"not a term: {child!r}")
        node = _new(_NU_TWIN)
        node.coeff = coeff
        node.child = child
        node.arity = child.arity
        node.star = child.star
        node.content = _union(child.content, words.gen_content(coeff))
        node.bad = child.bad
        node.__class__ = Nu
        _NODES[key] = _ref(node, partial(_drop, key))
        return node


class G(_Node):
    __slots__ = ("left", "right")

    def __new__(cls, left: Term, right: Term) -> G:
        key = (G, left, right)
        ref = _NODES.get(key)
        if ref is not None:
            node = ref()
            if node is not None:
                return node
        for arg in (left, right):
            if not isinstance(arg, _Node):
                raise TypeError(f"not a term: {arg!r}")
        node = _new(_G_TWIN)
        node.left = left
        node.right = right
        node.arity = max(left.arity, right.arity)
        node.star = right.star
        node.content = _union(left.content, right.content)
        node.bad = right.bad if left.bad is None else left.bad
        node.__class__ = G
        _NODES[key] = _ref(node, partial(_drop, key))
        return node


_VAR_TWIN, _NU_TWIN, _G_TWIN = map(_twin, (Var, Nu, G))

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


def evaluate(t: Term, args: tuple[Word, ...], h) -> Word:
    """Evaluate t at the given words.  Extra arguments beyond meta(t).arity are
    ignored (projection semantics)."""
    arity = meta(t).arity
    if len(args) < arity:
        raise ArityError(f"term needs {arity} arguments, got {len(args)}")
    return _eval(t, args, h)


def _eval(t: Term, args: tuple[Word, ...], h) -> Word:
    kind = type(t)  # exact: the node classes are never subclassed
    if kind is Var:
        return args[t.index - 1]
    if kind is Nu:
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


def parse_term(text: str, coeffs: dict[str, Word]) -> Term:
    """Parse ``x<i>``, ``nu(<word>, <term>)`` and ``g(<term>, <term>)``.

    ``coeffs`` maps each coefficient text already parsed to its word; a
    text not in it is parsed with ``words.parse_word`` and stored, and a
    text that fails is not stored, so it fails again in the next term.
    Pass one table to every term of a batch and each distinct text is
    parsed once.  Raises ValueError on malformed text and on parentheses
    nested more than MAX_NESTING deep."""
    s = text.strip()
    _check_nesting(s)
    t, end = _parse(s, coeffs)
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


def _parse(s: str, coeffs: dict[str, Word]) -> tuple[Term, int]:
    """The term starting at s[0] and the index just past it, in one left to
    right pass.  Each open ``nu(`` or ``g(`` is a frame on an explicit stack:
    ``(_OPEN_NU, coefficient text)``, ``(_OPEN_G, None)`` or, once its left
    argument is read, ``(_G_LEFT_DONE, left)``.  A coefficient is looked up
    in ``coeffs`` (or parsed and stored) when its ``nu(...)`` closes, so
    errors come in the order of a recursive descent that parses the
    coefficient last.  Each variable's digit text is read into a ``Var``
    once per term, and a ``,`` or ``)`` right after a term is read as it
    stands: ``_CLOSER`` runs only where space or something else follows."""
    n = len(s)
    frames: list[tuple[int, object]] = []
    variables: dict[str, Var] = {}  # digit text -> its variable, in this term
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
        digits, i = s[start:j], j
        t: Term | None = variables.get(digits)
        if t is None:
            t = variables[digits] = Var(int(digits))
        # close every frame that t completes, up to a g( awaiting its right side
        while frames:
            closer = s[i] if i < n else None
            if closer == "," or closer == ")":
                i += 1
            else:
                m = _CLOSER.match(s, i)
                if m is None:
                    closer = None
                else:
                    closer, i = m.group(1), m.end()
            kind, held = frames[-1]
            if kind == _OPEN_G:
                if closer != ",":
                    raise ValueError("expected ',' inside g(...)")
                frames[-1] = (_G_LEFT_DONE, t)
                break
            if closer != ")":
                what = "nu" if kind == _OPEN_NU else "g"
                raise ValueError(f"expected ')' closing {what}(...)")
            frames.pop()
            if kind == _OPEN_NU:
                coeff = coeffs.get(held)
                if coeff is None:
                    coeff = coeffs[held] = words.parse_word(held)
                t = Nu(coeff, t)
            else:
                t = G(held, t)
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

    Depth <= max_depth (at most MAX_SAMPLE_DEPTH), variables <= max_var,
    nu-coefficients drawn from coeff_pool.  When max_depth >= 2 the corpus
    contains at least one G node.

    Stream contract: each term is drawn from ``random.Random(seed)`` as by a
    recursive ``gen_term(budget)`` that, below budget 2, returns
    ``Var(rng.randint(1, max_var))``; otherwise it rolls ``rng.random()``:
    below 0.25 a variable as before, below 0.55 with a nonempty pool
    ``Nu(pool[rng.randrange(len(pool))], gen_term(budget - 1))``, else
    ``G`` of two such terms, left first.  Each draw below n is read straight
    from ``rng.getrandbits`` by their rule: ``n.bit_length()`` bits, drawn
    again while the value is n or more.
    """
    if max_depth < 1 or max_var < 1 or count < 1:
        raise ValueError("max_depth, max_var and count must all be >= 1")
    if max_depth > MAX_SAMPLE_DEPTH:
        raise ValueError(f"max_depth must be at most {MAX_SAMPLE_DEPTH}, got {max_depth}")
    gen_term = _term_sampler(random.Random(seed), max_var,
                             [words.reduce(w) for w in coeff_pool])

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


def _term_sampler(rng: random.Random, max_var: int, pool: list[Word]):
    """``gen_term(budget)`` of ``sample_terms``' stream contract, over rng.

    The recursion is handed itself as an argument rather than reading its
    own closure cell, so no reference cycle keeps rng alive after a sample.
    """
    bits, roll = rng.getrandbits, rng.random
    n_pool = len(pool)
    k_var, k_pool = max_var.bit_length(), n_pool.bit_length()

    def gen(budget: int, again) -> Term:
        if budget > 1:
            r = roll()
            if r >= 0.25:
                if r < 0.55 and pool:
                    i = bits(k_pool)
                    while i >= n_pool:
                        i = bits(k_pool)
                    return Nu(pool[i], again(budget - 1, again))
                return G(again(budget - 1, again), again(budget - 1, again))
        i = bits(k_var)
        while i >= max_var:
            i = bits(k_var)
        return Var(i + 1)

    return lambda budget: gen(budget, gen)


def _has_g(t: Term) -> bool:
    while isinstance(t, Nu):
        t = t.child
    return isinstance(t, G)
