"""The homogeneous word algebra on the free group and its distributivity failure.

The carrier is the free group F on z1, z2, ...; the binary operation is

    g(w1, w2) = z_h(w1 * w2^-1) * w2

where h maps words to even generator indices: three values are pinned,
h(z1*z2^-1) = 6, h(z3*z2^-1) = 8, h(z1*z4^-1) = 10, and every other word
takes the free even index (2, 4, 12, 14, ...) its injective encoding names.
The free indices skip 6, 8 and 10, so h is injective.  Every term t in
the language {nu_c, g} evaluates to either a fixed prefix times its rightmost
variable (Form 1) or a genuinely varying prefix (Form 2); Form 2 terms yield
explicit counterexamples to the distributivity condition.

A Form 2 classification carries its witness plan as data: the two argument
positions that receive fresh generators, the generators to avoid, and
whether only odd ones may be used.  ``sample_witnesses`` draws its tuples
from the one stream a plan names, ``_fresh_pair_tuples``.  A Form 1 prefix
whose h-index has more digits than a report may print is refused with a
ValueError: the next g over it would encode a still longer index.
"""

from __future__ import annotations

import itertools
import random
from typing import Iterator, NamedTuple, Optional

from . import words
from .report import Check, max_digits, printable
from .terms import G, Nu, Term, evaluate, meta
from .words import IDENTITY, Word, div, gen_content, mul

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


def _trits(v: int) -> str:
    """The bijective-base-2 digits of v >= 1 as trits, then a 0 separator."""
    return bin(v + 1)[3:].translate(_BIJECTIVE_DIGITS) + "0"


_SMALL_TRITS = tuple(_trits(v) for v in range(512))  # index 0 is never read


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
    Values below 512, nearly all of them, take their trits from the constant
    table ``_SMALL_TRITS``, built once at import.
    """
    parts = ["1"]  # sentinel
    for g, e in w:
        z = 2 * e - 1 if e > 0 else -2 * e
        parts.append(_SMALL_TRITS[g] if g < 512 else _trits(g))
        parts.append(_SMALL_TRITS[z] if z < 512 else _trits(z))
    trits = "".join(parts)
    if len(trits) <= _CHUNK_TRITS:
        return int(trits, 3) - 1
    head = len(trits) % _CHUNK_TRITS or _CHUNK_TRITS
    n = int(trits[:head], 3)
    for i in range(head, len(trits), _CHUNK_TRITS):
        n = n * _CHUNK_SCALE + int(trits[i : i + _CHUNK_TRITS], 3)
    return n - 1


def _free_even(m: int) -> int:
    """The m-th even index >= 2 skipping the pinned values 6, 8, 10."""
    return 2 * m + 2 if m < 2 else 2 * m + 8


class HMap:
    """Total injective map from words to even generator indices.

    Three values are pinned; every other word is assigned a free even index
    (2, 4, 12, 14, ...) by a deterministic injective encoding, so lookups are
    independent of query order.  The encoding is injective and its values
    avoid 6, 8 and 10, so no two words share an index.

    An HMap also memoizes ``classify`` for the terms classified through it.
    """

    def __init__(self):
        self._memo: dict[Word, int] = dict(PINS)
        self._forms: dict[Term, TermForm] = {}

    def lookup(self, w: Word) -> int:
        got = self._memo.get(w)
        if got is None:
            got = self._memo[w] = _free_even(_encode(w))
        return got

    def g(self, w1: Word, w2: Word) -> Word:
        idx = self.lookup(div(w1, w2))
        if w2 and w2[0][0] == idx:
            return mul(((idx, 1),), w2)
        return ((idx, 1),) + w2


def check_homogeneity(h: HMap, samples: int, seed: int) -> Check:
    """Verify g(w1 w', w2 w') == g(w1, w2) w' on seeded random triples."""
    rng = random.Random(seed)
    g, rand_word, fmt = h.g, words.rand_word, words.format_word
    check = Check.sampled("right_translation_homogeneity")
    record = check.record
    for _ in range(samples):
        w1, w2, wp = rand_word(rng), rand_word(rng), rand_word(rng)
        lhs = g(mul(w1, wp), mul(w2, wp))
        rhs = mul(g(w1, w2), wp)
        record(lhs == rhs, lambda: {"w1": fmt(w1), "w2": fmt(w2), "wprime": fmt(wp),
                                    "lhs": fmt(lhs), "rhs": fmt(rhs)})
    return check


_PREFIX_INVARIANT = "prefix generators must be even or lie in the term's content"


class TermForm(NamedTuple):
    """Classification of a term: constant prefix (Form 1) or varying (Form 2)."""

    form: int  # 1 or 2
    arity: int
    star: int
    case: str
    prefix: Optional[Word] = None  # Form 1 only
    # Form 2 only: (pos1, pos2, excluded, odd_only), the arguments after the
    # arity of the _fresh_pair_tuples stream its witnesses are drawn from
    plan: Optional[tuple[int, int, frozenset[int], bool]] = None


class WitnessSample(NamedTuple):
    mu: tuple[Word, ...]
    prefix: Word
    fresh_gen: int
    value: Word  # t(mu), which is prefix * mu[star - 1]


def _fresh_pair_tuples(
    n: int, pos1: int, pos2: int, excluded: frozenset[int], odd_only: bool
) -> Iterator[tuple[Word, ...]]:
    """n-tuples of positive words: single generators at positions pos1 and
    pos2, z1 elsewhere.  Each generator k not in ``excluded`` (and odd, if
    ``odd_only``) is paired, both ways round, with every earlier one."""
    z1 = words.gen(1)
    chosen: list[int] = []
    for k in itertools.count(1, 2 if odd_only else 1):
        if k in excluded:
            continue
        for other in chosen:
            for u1, u2 in ((other, k), (k, other)):
                base = [z1] * n
                base[pos1 - 1] = words.gen(u1)
                base[pos2 - 1] = words.gen(u2)
                yield tuple(base)
        chosen.append(k)


def classify(t: Term, h: HMap) -> TermForm:
    """Decide whether t evaluates to w * y_star for a fixed word w (Form 1) or
    to a varying prefix times y_star (Form 2), following the structural
    recursion on t.

    Subterms are classified children first, left before right, and each
    distinct subterm once per ``h``: the forms are kept in ``h._forms``.  The
    walk pops each node off an explicit stack and classifies it when its
    children have forms; otherwise it pushes the node back under the
    children that have none, the left one on top."""
    forms = h._forms
    form = forms.get(t)
    if form is not None:
        return form
    meta(t)  # a bad variable anywhere in t fails here, before any work
    stack = [t]
    pop, push = stack.pop, stack.append
    while stack:
        node = pop()
        if node in forms:  # a shared subterm may be pushed twice
            continue
        kind = type(node)  # exact: the node classes are never subclassed
        if kind is G:
            left = forms.get(node.left)
            right = forms.get(node.right)
            if left is None or right is None:
                push(node)
                if right is None:
                    push(node.right)
                if left is None:
                    push(node.left)
                continue
            forms[node] = _classify_g(node, left, right, h)
        elif kind is Nu:
            sub = forms.get(node.child)
            if sub is None:
                push(node)
                push(node.child)
                continue
            if sub.form == 1:
                prefix = mul(node.coeff, sub.prefix)
                _check_prefix(prefix, node.content)
                forms[node] = TermForm(1, node.arity, node.star, prefix=prefix,
                                       case="nu-lift")
            else:
                forms[node] = TermForm(2, node.arity, node.star,
                                       case="nu-" + sub.case, plan=sub.plan)
        else:  # a variable
            forms[node] = TermForm(1, node.arity, node.star, prefix=IDENTITY,
                                   case="var")
    return forms[t]


def _classify_g(t: G, left: TermForm, right: TermForm, h: HMap) -> TermForm:
    """The form of g(t.left, t.right), given the forms of its children."""
    n = t.arity
    if right.form == 2:
        return TermForm(2, n, t.star, case="g-right-varying", plan=right.plan)

    w2 = right.prefix
    if left.form == 1:
        if left.star == right.star:
            prefix = h.g(left.prefix, w2)
            _check_prefix(prefix, t.content)
            # any other index in prefix is w2's, checked when w2 was formed
            if prefix and not printable(prefix[0][0]):
                raise ValueError(
                    f"an h-index in the prefix has more than {max_digits()} digits"
                )
            return TermForm(1, n, t.star, prefix=prefix, case="g-aligned")
        # constant children, distinct rightmost variables
        excluded = gen_content(left.prefix) | gen_content(w2)
        plan = (left.star, right.star, excluded, False)
        return TermForm(2, n, t.star, case="g-split-stars", plan=plan)

    if left.star == right.star:
        return TermForm(2, n, t.star, case="g-left-varying", plan=left.plan)
    plan = (left.star, right.star, t.content | gen_content(w2), True)
    return TermForm(2, n, t.star, case="g-left-varying-split", plan=plan)


def _check_prefix(prefix: Word, content: frozenset[int]) -> None:
    for g, _ in prefix:
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
    stream = _fresh_pair_tuples(form.arity, *form.plan)
    budget = SAMPLE_BUDGET
    while len(out) < count:
        if budget <= 0:
            raise WitnessExhausted(
                f"budget exhausted after {len(out)} of {count} samples"
            )
        budget -= 1
        mu = next(stream)
        value = evaluate(t, mu, h)
        prefix = div(value, mu[form.star - 1])
        _check_prefix(prefix, m.content)
        fresh = [g for g, e in prefix if e > 0 and g not in used]
        if not fresh:
            continue
        pick = max(fresh)
        used.add(pick)
        out.append(WitnessSample(mu=mu, prefix=prefix, fresh_gen=pick, value=value))
    return out


class Refutation(NamedTuple):
    a: Word
    mu: tuple[Word, ...]
    lhs: Word
    rhs: Word

    @property
    def holds(self) -> bool:
        return self.lhs != self.rhs


def refute_distributivity(t: Term, h: HMap, form: TermForm) -> Refutation:
    """Produce (a, mu, lhs, rhs) with a * t(mu) != t(a*mu) for a Form 2 term.

    ``form`` is t's classification under h."""
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
    lhs = mul(a, sample.value)
    rhs = evaluate(t, tuple(mul(a, w) for w in mu), h)
    return Refutation(a=a, mu=mu, lhs=lhs, rhs=rhs)
