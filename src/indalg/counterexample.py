"""The homogeneous word algebra on the free group and its distributivity failure.

The carrier is the free group F on z1, z2, ...; the binary operation is

    g(w1, w2) = z_h(w1 * w2^-1) * w2

where h maps words injectively to even generator indices, with three pinned
values h(z1*z2^-1) = 6, h(z3*z2^-1) = 8, h(z1*z4^-1) = 10.  Every term t in
the language {nu_c, g} evaluates to either a fixed prefix times its rightmost
variable (Form 1) or a genuinely varying prefix (Form 2); Form 2 terms yield
explicit counterexamples to the distributivity condition.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional

from . import words
from .terms import G, Nu, Term, Var, evaluate, meta
from .words import IDENTITY, Word, gen_content, inv, mul

PINS: dict[Word, int] = {
    words.parse_word("z1*z2^-1"): 6,
    words.parse_word("z3*z2^-1"): 8,
    words.parse_word("z1*z4^-1"): 10,
}

SAMPLE_BUDGET = 100_000


class WitnessExhausted(RuntimeError):
    """Candidate budget ran out before enough witness samples were found."""


class NotForm2(ValueError):
    """Operation requires a Form 2 classification."""


_CHUNK_TRITS = 600
_CHUNK_SCALE = 3**_CHUNK_TRITS
_BIJECTIVE_DIGITS = str.maketrans("01", "12")


def _encode(w: Word) -> int:
    """Injective self-delimiting encoding of a word as a nonnegative integer.

    Each syllable contributes the bijective-base-2 digits of its generator
    index and of its zigzagged exponent, each followed by a 0 separator; the
    digit string is read in base 3 behind a leading sentinel.  Distinct words
    give distinct digit strings, so the map is injective, and the identity
    encodes to 0.

    The bijective-base-2 digits of v are the binary digits of v + 1 after
    its leading 1, with 0 -> 1 and 1 -> 2, so the whole trit string is built
    at once and converted by ``int(..., 3)``, linear in its length where a
    digit-at-a-time ``n = 3*n + d`` is quadratic.  The conversion runs in
    chunks of at most 600 trits (the first chunk takes the remainder): the
    interpreter's limit on digits converted from a string can be set as low
    as 640, and changing that limit would change it for the whole process.
    """
    parts = ["1"]  # sentinel
    for g, e in w:
        z = 2 * e - 1 if e > 0 else -2 * e
        parts.append(bin(g + 1)[3:].translate(_BIJECTIVE_DIGITS))
        parts.append("0")
        parts.append(bin(z + 1)[3:].translate(_BIJECTIVE_DIGITS))
        parts.append("0")
    trits = "".join(parts)
    head = len(trits) % _CHUNK_TRITS or _CHUNK_TRITS
    n = int(trits[:head], 3)
    for i in range(head, len(trits), _CHUNK_TRITS):
        n = n * _CHUNK_SCALE + int(trits[i : i + _CHUNK_TRITS], 3)
    return n - 1


def _free_even(m: int) -> int:
    """The m-th even index >= 2 skipping the pinned values 6, 8, 10."""
    return 2 * m + 2 if m < 2 else 2 * m + 8


def _decode_free_even(idx: int) -> Word:
    """Inverse of the non-pinned assignment (used as a test oracle)."""
    if idx % 2 or idx < 2 or idx in (6, 8, 10):
        raise ValueError(f"{idx} is not a non-pinned image value")
    m = (idx - 2) // 2 if idx in (2, 4) else (idx - 8) // 2
    n = m + 1
    digits: list[int] = []
    while n > 1:
        n, r = divmod(n, 3)
        digits.append(r)
    digits.reverse()
    syllables: list[tuple[int, int]] = []
    nums: list[int] = []
    cur = 0
    started = False
    for d in digits:
        if d == 0:
            if not started:
                raise ValueError("malformed encoding")
            nums.append(cur)
            cur, started = 0, False
        else:
            cur = 2 * cur + d
            started = True
    if started or len(nums) % 2:
        raise ValueError("malformed encoding")
    for g, z in zip(nums[::2], nums[1::2]):
        e = (z + 1) // 2 if z % 2 else -(z // 2)
        syllables.append((g, e))
    return words.reduce(syllables)


class HMap:
    """Total injective map from words to even generator indices.

    Three values are pinned; every other word is assigned a free even index
    (2, 4, 12, 14, ...) by a deterministic injective encoding, so lookups are
    independent of query order.  Extra user pins may be supplied; injectivity
    is then guarded at lookup time.  The encoding is injective and its values
    avoid 6, 8 and 10, so a fresh word can clash only with an extra pin.

    An HMap also memoizes ``classify`` for the terms classified through it.
    """

    def __init__(self, extra_pins: Optional[dict[Word, int]] = None):
        self.pins = dict(PINS)
        if extra_pins:
            for w, v in extra_pins.items():
                w = words.reduce(w)
                if v % 2 or v < 2:
                    raise ValueError(f"pinned value {v} is not an even index >= 2")
                self.pins[w] = v
        self._memo: dict[Word, int] = dict(self.pins)
        self._pinned: dict[int, Word] = {v: w for w, v in self.pins.items()}
        if len(self._pinned) != len(self.pins):
            raise ValueError("pin table is not injective")
        self._forms: dict[Term, TermForm] = {}

    def lookup(self, w: Word) -> int:
        got = self._memo.get(w)
        if got is not None:
            return got
        idx = _free_even(_encode(w))
        clash = self._pinned.get(idx)
        if clash is not None:
            raise ValueError(
                f"h collision: {words.format_word(w)} and "
                f"{words.format_word(clash)} both map to {idx}"
            )
        self._memo[w] = idx
        return idx

    def g(self, w1: Word, w2: Word) -> Word:
        return mul(((self.lookup(mul(w1, inv(w2))), 1),), w2)


def check_homogeneity(h: HMap, samples: int, seed: int = 0) -> dict:
    """Verify g(w1 w', w2 w') == g(w1, w2) w' on seeded random triples."""
    rng = random.Random(seed)
    failures = []
    for k in range(samples):
        w1 = words.rand_word(rng, max_gen=6, max_syll=4, max_exp=3)
        w2 = words.rand_word(rng, max_gen=6, max_syll=4, max_exp=3)
        wp = words.rand_word(rng, max_gen=6, max_syll=4, max_exp=3)
        lhs = h.g(mul(w1, wp), mul(w2, wp))
        rhs = mul(h.g(w1, w2), wp)
        if lhs != rhs:
            failures.append(
                {
                    "w1": words.format_word(w1),
                    "w2": words.format_word(w2),
                    "wprime": words.format_word(wp),
                    "lhs": words.format_word(lhs),
                    "rhs": words.format_word(rhs),
                }
            )
    return {"samples": samples, "failures": failures, "ok": not failures}


_PREFIX_INVARIANT = "prefix generators must be even or lie in the term's content"


@dataclass(frozen=True)
class TermForm:
    """Classification of a term: constant prefix (Form 1) or varying (Form 2)."""

    form: int  # 1 or 2
    arity: int
    star: int
    prefix: Optional[Word] = None  # Form 1 only
    case: str = ""
    candidates: Optional[Callable[[], Iterator[tuple[Word, ...]]]] = field(
        default=None, repr=False, compare=False
    )


@dataclass(frozen=True)
class WitnessSample:
    mu: tuple[Word, ...]
    prefix: Word
    fresh_gen: int


def _pad(stream: Callable[[], Iterator[tuple[Word, ...]]], n: int):
    z1 = words.gen(1)

    def padded() -> Iterator[tuple[Word, ...]]:
        for tup in stream():
            yield tup + (z1,) * (n - len(tup))

    return padded


def _fresh_pair_tuples(n: int, pos1: int, pos2: int, allowed: Callable[[int], bool]):
    """Tuples with single fresh generators at two coordinates, z1 elsewhere."""
    z1 = words.gen(1)

    def stream() -> Iterator[tuple[Word, ...]]:
        chosen: list[int] = []
        k = 0
        while True:
            k += 1
            if not allowed(k):
                continue
            for other in chosen:
                for u1, u2 in ((other, k), (k, other)):
                    base = [z1] * n
                    base[pos1 - 1] = words.gen(u1)
                    base[pos2 - 1] = words.gen(u2)
                    yield tuple(base)
            chosen.append(k)

    return stream


def classify(t: Term, h: HMap) -> TermForm:
    """Decide whether t evaluates to w * y_star for a fixed word w (Form 1) or
    to a varying prefix times y_star (Form 2), following the structural
    recursion on t.

    Subterms are classified children first, left before right, on an explicit
    stack, and each distinct subterm once per ``h``: the forms are kept in
    ``h._forms``."""
    forms = h._forms
    form = forms.get(t)
    if form is not None:
        return form
    meta(t)  # a bad variable anywhere in t fails here, before any work
    stack = [t]
    while stack:
        node = stack[-1]
        if isinstance(node, G):
            todo = [c for c in (node.right, node.left) if c not in forms]
        elif isinstance(node, Nu) and node.child not in forms:
            todo = [node.child]
        else:
            todo = None
        if todo:
            stack += todo
            continue
        stack.pop()
        if node not in forms:  # a shared child may be pushed twice
            forms[node] = _classify_node(node, forms, h)
    return forms[t]


def _classify_node(t: Term, forms: dict[Term, TermForm], h: HMap) -> TermForm:
    """t's form, given the forms of its children."""
    if isinstance(t, Var):
        return TermForm(1, t.arity, t.star, prefix=IDENTITY, case="var")

    if isinstance(t, Nu):
        sub = forms[t.child]
        if sub.form == 1:
            prefix = mul(t.coeff, sub.prefix)
            _check_prefix(prefix, t.content)
            return TermForm(1, t.arity, t.star, prefix=prefix, case="nu-lift")
        return TermForm(
            2, t.arity, t.star, case="nu-" + sub.case, candidates=sub.candidates
        )

    left = forms[t.left]
    right = forms[t.right]
    n = t.arity

    if right.form == 2:
        return TermForm(
            2, n, t.star, case="g-right-varying", candidates=_pad(right.candidates, n)
        )

    w2 = right.prefix
    if left.form == 1:
        if left.star == right.star:
            prefix = mul(words.gen(h.lookup(mul(left.prefix, inv(w2)))), w2)
            _check_prefix(prefix, t.content)
            return TermForm(1, n, t.star, prefix=prefix, case="g-aligned")
        # constant children, distinct rightmost variables
        excluded = gen_content(left.prefix) | gen_content(w2)
        stream = _fresh_pair_tuples(
            n, left.star, right.star, lambda k: k not in excluded
        )
        return TermForm(2, n, t.star, case="g-split-stars", candidates=stream)

    if left.star == right.star:
        return TermForm(
            2, n, t.star, case="g-left-varying", candidates=_pad(left.candidates, n)
        )
    excluded = t.content | gen_content(w2)
    stream = _fresh_pair_tuples(
        n, left.star, right.star, lambda k: k % 2 == 1 and k not in excluded
    )
    return TermForm(2, n, t.star, case="g-left-varying-split", candidates=stream)


def _check_prefix(prefix: Word, content: frozenset[int]) -> None:
    for g in gen_content(prefix):
        if g % 2 and g not in content:
            raise AssertionError(_PREFIX_INVARIANT)


def sample_witnesses(form: TermForm, t: Term, h: HMap, count: int) -> list[WitnessSample]:
    """Draw `count` witness tuples mu in F+^n whose prefixes each contain a
    previously unused generator with positive exponent."""
    if form.form != 2:
        raise NotForm2("term classified as Form 1 has a constant prefix")
    if count < 1:
        raise ValueError("count must be >= 1")
    m = meta(t)
    used: set[int] = set()
    out: list[WitnessSample] = []
    stream = form.candidates()
    budget = SAMPLE_BUDGET
    while len(out) < count:
        if budget <= 0:
            raise WitnessExhausted(
                f"budget exhausted after {len(out)} of {count} samples"
            )
        budget -= 1
        mu = next(stream)
        if len(mu) != form.arity or not all(words.is_positive(w) for w in mu):
            continue
        value = evaluate(t, mu, h)
        prefix = mul(value, inv(mu[form.star - 1]))
        _check_prefix(prefix, m.content)
        fresh = [g for g, e in prefix if e > 0 and g not in used]
        if not fresh:
            continue
        pick = max(fresh)
        used.add(pick)
        out.append(WitnessSample(mu=mu, prefix=prefix, fresh_gen=pick))
    return out


@dataclass(frozen=True)
class Refutation:
    a: Word
    mu: tuple[Word, ...]
    lhs: Word
    rhs: Word

    @property
    def holds(self) -> bool:
        return self.lhs != self.rhs


def refute_distributivity(
    t: Term, h: HMap, form: Optional[TermForm] = None
) -> Refutation:
    """Produce (a, mu, lhs, rhs) with a * t(mu) != t(a*mu) for a Form 2 term.

    ``form`` is t's classification when the caller already has it."""
    if form is None:
        form = classify(t, h)
    if form.form != 2:
        raise NotForm2(f"{t!r} has constant prefix; no refutation exists")
    sample = sample_witnesses(form, t, h, 1)[0]
    mu = sample.mu
    blocked = set(meta(t).content)
    for w in mu:
        blocked |= gen_content(w)
    k = 1
    while k in blocked:
        k += 2
    a = words.gen(k)
    lhs = mul(a, evaluate(t, mu, h))
    rhs = evaluate(t, tuple(mul(a, w) for w in mu), h)
    return Refutation(a=a, mu=mu, lhs=lhs, rhs=rhs)
