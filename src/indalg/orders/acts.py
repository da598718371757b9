"""Act backend: endomorphisms of a free monoid act on n generators.

The carrier is {(m, i) : m an exponent, 1 <= i <= n}, where (m, i) stands
for the generator b_i translated m times.  Flavor "B" restricts exponents
and shifts to be nonnegative; flavor "A" allows all integers (the
overmonoid in which every translation becomes invertible).

An endomorphism is determined by where it sends the generators:
b_i |-> (shift_i, target_i).  Composition "apply theta, then phi" acts on
elements by (m, i) |-> (m + shift_i, target_i).

Kernels are described exactly by which generator pairs get merged and at
what exponent offset; images, up to pure closure, by the set of generator
indices hit.  These two data drive all the order-theoretic predicates.

Every kernel computation goes through three functions: ``first_preimages``
(each target's least preimage, the representative of its merge class),
``merge_classes`` (the classes, ordered by least member) and
``with_kernel`` (the endomorphism that moves each class of a given one as a
block, onto a chosen target at a chosen base shift).  Kernel keys and
containment, the gamma constructions, the idempotents, the H*-class
elements and the Ore solutions are all written with them.

A check verifies, a construction does not.  An ``ActEndo`` is plain data:
it is checked once, where a payload enters, by ``act_endo`` (the CLI's one
reader of act endomorphisms), and nowhere else.  The constructions here
refuse arguments outside their preconditions with ``PreconditionViolated``,
and return what they build without re-checking it: each property they
promise is verified once, by the check of the report that records it, so a
faulty construction ends as a failed check with its witness.  That
includes End(B) membership: ``verify_decomposition`` requires both parts of
a decomposition to be flavor B with nonnegative shifts.

It defines the names its sibling ``matrix`` shares with it (see that
docstring), with the one decomposition mode ``left`` so far.  It imports
nothing from ``matrix``, and draws through the package's ``randints``.
"""

from __future__ import annotations

import random
from typing import NamedTuple

from . import randints


class PreconditionViolated(ValueError):
    pass


class ActEndo(NamedTuple):
    """An endomorphism, as plain data: building one checks nothing.  A
    record from outside enters through ``act_endo``, and End(B) membership
    of a decomposition's parts is checked by ``verify_decomposition``."""

    flavor: str  # "A" (integer shifts) or "B" (nonnegative shifts)
    shifts: tuple[int, ...]
    targets: tuple[int, ...]  # 0-based generator indices

    @property
    def n(self) -> int:
        return len(self.shifts)

    def __call__(self, elem: tuple[int, int]) -> tuple[int, int]:
        m, i = elem
        return (m + self.shifts[i], self.targets[i])

    def as_dict(self):
        return {
            "flavor": self.flavor,
            "shifts": list(self.shifts),
            "targets": [t + 1 for t in self.targets],
        }


def act_endo(flavor: str, shifts, targets_one_based) -> ActEndo:
    """An endomorphism from 1-based generator targets, checked: the one
    constructor that refuses an unknown flavor, shifts and targets of
    different lengths, a target naming no generator, and a negative shift
    in flavor B, each with a ValueError."""
    if flavor not in ("A", "B"):
        raise ValueError(f"unknown flavor {flavor!r}")
    shifts, targets = tuple(shifts), tuple(t - 1 for t in targets_one_based)
    n = len(shifts)
    if len(targets) != n:
        raise ValueError("shifts/targets length mismatch")
    if n and (min(targets) < 0 or max(targets) >= n):
        raise ValueError("target index out of range")
    if flavor == "B" and n and min(shifts) < 0:
        raise ValueError("flavor B requires nonnegative shifts")
    return ActEndo(flavor, shifts, targets)


def compose(theta: ActEndo, phi: ActEndo) -> ActEndo:
    """Apply theta, then phi."""
    if theta.n != phi.n:
        raise ValueError("rank mismatch")
    flavor = "A" if "A" in (theta.flavor, phi.flavor) else "B"
    ps, pt = phi.shifts, phi.targets
    shifts = tuple([s + ps[t] for s, t in zip(theta.shifts, theta.targets)])
    return ActEndo(flavor, shifts, tuple([pt[t] for t in theta.targets]))


def lift_endo(theta: ActEndo) -> ActEndo:
    """View a flavor-B endomorphism inside the overmonoid."""
    return ActEndo("A", theta.shifts, theta.targets)


def target_set(theta: ActEndo) -> frozenset[int]:
    return frozenset(theta.targets)


def act_rank(theta: ActEndo) -> int:
    return len(target_set(theta))


def first_preimages(theta: ActEndo) -> dict[int, int]:
    """Each target of theta -> the least generator theta sends onto it."""
    first: dict[int, int] = {}
    for i, t in enumerate(theta.targets):
        first.setdefault(t, i)
    return first


def merge_classes(theta: ActEndo) -> list[list[int]]:
    """The generators theta merges, one class per target, ordered by least
    member."""
    classes: dict[int, list[int]] = {}
    for i, t in enumerate(theta.targets):
        classes.setdefault(t, []).append(i)
    return list(classes.values())


def with_kernel(alpha: ActEndo, bases, targets) -> ActEndo:
    """The flavor-B endomorphism sending merge class k of alpha onto
    targets[k] at shift bases[k], plus each member's offset from the
    class's minimum shift.  Its kernel contains alpha's, and equals it
    when the targets are distinct."""
    shifts = [0] * alpha.n
    image = [0] * alpha.n
    for members, base, target in zip(merge_classes(alpha), bases, targets):
        low = min(alpha.shifts[i] for i in members)
        for i in members:
            shifts[i] = base + alpha.shifts[i] - low
            image[i] = target
    return ActEndo("B", tuple(shifts), tuple(image))


def kernel_key(theta: ActEndo):
    """Canonical description of the kernel: for each generator, the least
    generator it is merged with and the exponent offset to that
    representative.  Equal keys iff equal kernels."""
    first = first_preimages(theta)
    shifts = theta.shifts
    return tuple([(first[t], s - shifts[first[t]])
                  for t, s in zip(theta.targets, shifts)])


def kernel_leq(a: ActEndo, b: ActEndo) -> bool:
    """ker(b) <= ker(a): everything b merges, a merges the same way."""
    if a.n != b.n:
        raise ValueError("rank mismatch")
    first = first_preimages(b)
    for j, t in enumerate(b.targets):
        i = first[t]
        if a.targets[i] != a.targets[j]:
            return False
        if b.shifts[j] - b.shifts[i] != a.shifts[j] - a.shifts[i]:
            return False
    return True


def greens_leq(side: str, a: ActEndo, b: ActEndo) -> bool:
    """Green's order comparisons for act endomorphisms.

    R / Rstar use kernel containment; L uses image containment in the
    overmonoid (where shifts are invertible, so only the generator indices
    matter); Lstar uses pure-closure images.
    """
    if side in ("R", "Rstar"):
        return kernel_leq(a, b)
    if side in ("L", "Lstar"):
        return target_set(a) <= target_set(b)
    raise ValueError(f"unknown side {side!r}")


# --- quotient elements ------------------------------------------------------


class ActQuot(NamedTuple):
    """t^k \\ (m, i) reduced to canonical form (m - k, i) in the
    overmonoid's copy of the act."""

    m: int
    i: int

    def as_dict(self):
        return {"m": self.m, "i": self.i + 1}


def quot(k: int, m: int, i: int) -> ActQuot:
    if k < 0:
        raise ValueError("translation power must be nonnegative")
    if i < 1:
        raise ValueError("generator index must be at least 1")
    return ActQuot(m - k, i - 1)


def embed(m: int, i: int) -> ActQuot:
    if m < 0:
        raise ValueError("flavor B exponents are nonnegative")
    return quot(0, m, i)


def quotient_eq(p: ActQuot, q: ActQuot) -> bool:
    """Equality of canonical forms."""
    return p == q


# --- decomposition ----------------------------------------------------------

MODES = ("left",)


def decompose(alpha: ActEndo, mode: str) -> tuple[ActEndo, ActEndo]:
    """alpha = a# b for an overmonoid endomorphism alpha, in mode 'left':
    a is the unit translating every generator by d = max(0, -min shift),
    and b is alpha shifted by d, both with nonnegative shifts."""
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    d = max(0, -min(alpha.shifts)) if alpha.shifts else 0
    a = ActEndo("B", (d,) * alpha.n, tuple(range(alpha.n)))
    b = ActEndo("B", tuple(s + d for s in alpha.shifts), alpha.targets)
    return a, b


def verify_decomposition(alpha: ActEndo, dec, mode: str) -> bool:
    """Whether dec = (a, b) is a decomposition of alpha: a and b lie in
    End(B) (flavor B, every shift nonnegative), a is a unit pattern
    (identity targets, constant shift d), and a# b equals alpha in the
    overmonoid."""
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    a, b = dec
    if any(p.flavor != "B" or min(p.shifts, default=0) < 0 for p in dec):
        return False
    if a.targets != tuple(range(a.n)) or len(set(a.shifts)) > 1:
        return False
    d = a.shifts[0] if a.shifts else 0
    a_inv = ActEndo("A", (-d,) * a.n, a.targets)
    return compose(a_inv, lift_endo(b)) == lift_endo(alpha)


show = ActEndo.as_dict  # an endomorphism as report JSON


# --- the gamma constructions ------------------------------------------------


def gamma_left(alpha: ActEndo, beta: ActEndo) -> ActEndo:
    """gamma with PC(im(gamma then beta)) = PC(im alpha), given
    PC(im alpha) <= PC(im beta)."""
    if alpha.n != beta.n:
        raise ValueError("rank mismatch")
    if not greens_leq("Lstar", alpha, beta):
        raise PreconditionViolated("PC(im alpha) is not within PC(im beta)")
    hit = target_set(alpha)
    first = first_preimages(beta)
    default = first[min(hit)]
    targets = tuple(first[j] if j in hit else default for j in range(alpha.n))
    return ActEndo("B", (0,) * alpha.n, targets)


def gamma_right(alpha: ActEndo, beta: ActEndo) -> ActEndo:
    """gamma with ker(beta then gamma) = ker alpha, given
    ker beta <= ker alpha.

    For each index j hit by beta, push the least beta-preimage i(j)
    through alpha, and add the common padding p = max_j shift_beta(i(j))
    so all gamma shifts stay nonnegative; then (beta gamma)(b_i) comes out
    as alpha(b_i) translated by p for every i, so the kernels agree
    exactly."""
    if alpha.n != beta.n:
        raise ValueError("rank mismatch")
    if not kernel_leq(alpha, beta):
        raise PreconditionViolated("ker beta is not within ker alpha")
    pre = first_preimages(beta)
    p = max(beta.shifts[i] for i in pre.values())
    shifts = []
    targets = []
    for j in range(alpha.n):
        if j in pre:
            i = pre[j]
            shifts.append(p - beta.shifts[i] + alpha.shifts[i])
            targets.append(alpha.targets[i])
        else:
            shifts.append(0)
            targets.append(j)
    return ActEndo("B", tuple(shifts), tuple(targets))


# --- idempotents and subgroup classes ---------------------------------------


def lstar_idempotent(alpha: ActEndo) -> ActEndo:
    """An idempotent with the same pure-closure image as alpha."""
    hit = target_set(alpha)
    low = min(hit)
    targets = tuple(j if j in hit else low for j in range(alpha.n))
    return ActEndo("B", (0,) * alpha.n, targets)


def rstar_idempotent(alpha: ActEndo) -> ActEndo:
    """An idempotent with the same kernel as alpha: each merge class is
    retracted onto its minimum-shift representative."""
    reps = [min(members, key=lambda i: (alpha.shifts[i], i))
            for members in merge_classes(alpha)]
    return with_kernel(alpha, [0] * len(reps), reps)


def is_square_cancellable(alpha: ActEndo) -> bool:
    """Subgroup-membership surrogate: alpha and alpha^2 share their kernel
    and their pure-closure image."""
    sq = compose(alpha, alpha)
    return kernel_key(sq) == kernel_key(alpha) and target_set(sq) == target_set(alpha)


def rand_square_cancellable(rng: random.Random, n: int) -> ActEndo:
    """Random endomorphism whose target set is permuted by itself: pick a
    target set T, a permutation of T for the T-generators, and routings
    into the same class pattern for the rest."""
    size = rng.randint(1, n)
    t = sorted(rng.sample(range(n), size))
    perm = list(t)
    rng.shuffle(perm)
    rho = dict(zip(t, perm))
    shifts = []
    targets = []
    for i in range(n):
        anchor = i if i in rho else rng.choice(t)
        shifts.append(rng.randint(0, 5))
        targets.append(rho[anchor])
    return ActEndo("B", tuple(shifts), tuple(targets))


def hstar_class(alpha: ActEndo) -> tuple:
    """(kernel key, target set) of alpha: equal exactly for the members of
    alpha's kernel/image class.  The suite's ``gii`` check compares it; the
    constructions below build members of the class with ``with_kernel``
    and do not re-check them with it."""
    return kernel_key(alpha), target_set(alpha)


def rand_hstar_element(rng: random.Random, alpha: ActEndo) -> ActEndo:
    """A random member of alpha's kernel/image class: its merge classes,
    by least member, onto a shuffle of alpha's targets, one class per
    target, at random base shifts."""
    perm = sorted(target_set(alpha))
    rng.shuffle(perm)
    return with_kernel(alpha, randints(rng, [(0, 4)] * len(perm)), perm)


def left_ore_solve(alpha: ActEndo, a: ActEndo, b: ActEndo) -> tuple[ActEndo, ActEndo]:
    """u, v in the kernel/image class of alpha with u a = v b, given a and
    b that permute alpha's targets (the class members of a
    square-cancellable alpha do), computed by aligning both compositions
    onto a common target assignment and padding per-class base shifts to
    reconcile the exponents."""
    # common target pattern: k-th class (by least member) onto k-th target,
    # one class per target
    hit = sorted(target_set(alpha))

    def aligned(theta: ActEndo):
        # choose the class assignment whose theta-composition lands on the
        # common pattern: route class k to the generator theta sends onto
        # hit[k]
        inv = {theta.targets[t]: t for t in hit}
        if sorted(inv) != hit:
            raise PreconditionViolated("a and b must permute the targets of alpha")
        assignment = [inv[t] for t in hit]
        return assignment, [theta.shifts[g] for g in assignment]

    assign_u, du = aligned(a)
    assign_v, dv = aligned(b)
    u = with_kernel(alpha, [max(0, y - x) for x, y in zip(du, dv)], assign_u)
    v = with_kernel(alpha, [max(0, x - y) for x, y in zip(du, dv)], assign_v)
    return u, v


# --- seeded sampling --------------------------------------------------------


def rand_act_endo(rng: random.Random, n: int) -> ActEndo:
    draws = randints(rng, [(0, 5)] * n + [(0, n - 1)] * n)
    return ActEndo("B", tuple(draws[:n]), tuple(draws[n:]))
