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
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .matrix import PreconditionViolated


@dataclass(frozen=True)
class ActEndo:
    flavor: str  # "A" (integer shifts) or "B" (nonnegative shifts)
    shifts: tuple[int, ...]
    targets: tuple[int, ...]  # 0-based generator indices

    def __post_init__(self):
        if self.flavor not in ("A", "B"):
            raise ValueError(f"unknown flavor {self.flavor!r}")
        n = len(self.shifts)
        if len(self.targets) != n:
            raise ValueError("shifts/targets length mismatch")
        if any(not (0 <= t < n) for t in self.targets):
            raise ValueError("target index out of range")
        if self.flavor == "B" and any(s < 0 for s in self.shifts):
            raise ValueError("flavor B requires nonnegative shifts")

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
    """Build an endomorphism from 1-based generator targets."""
    return ActEndo(
        flavor, tuple(int(s) for s in shifts), tuple(int(t) - 1 for t in targets_one_based)
    )


def act_identity(n: int, flavor: str = "B") -> ActEndo:
    return ActEndo(flavor, (0,) * n, tuple(range(n)))


def compose(theta: ActEndo, phi: ActEndo) -> ActEndo:
    """Apply theta, then phi."""
    if theta.n != phi.n:
        raise ValueError("rank mismatch")
    flavor = "A" if "A" in (theta.flavor, phi.flavor) else "B"
    shifts = tuple(
        theta.shifts[i] + phi.shifts[theta.targets[i]] for i in range(theta.n)
    )
    targets = tuple(phi.targets[theta.targets[i]] for i in range(theta.n))
    return ActEndo(flavor, shifts, targets)


def lift_endo(theta: ActEndo) -> ActEndo:
    """View a flavor-B endomorphism inside the overmonoid."""
    return ActEndo("A", theta.shifts, theta.targets)


def target_set(theta: ActEndo) -> frozenset[int]:
    return frozenset(theta.targets)


def act_rank(theta: ActEndo) -> int:
    return len(target_set(theta))


def kernel_key(theta: ActEndo):
    """Canonical description of the kernel: for each generator, the least
    generator it is merged with and the exponent offset to that
    representative.  Equal keys iff equal kernels."""
    first: dict[int, int] = {}
    key = []
    for i in range(theta.n):
        t = theta.targets[i]
        rep = first.setdefault(t, i)
        key.append((rep, theta.shifts[i] - theta.shifts[rep]))
    return tuple(key)


def kernel_leq(a: ActEndo, b: ActEndo) -> bool:
    """ker(b) <= ker(a): everything b merges, a merges the same way."""
    if a.n != b.n:
        raise ValueError("rank mismatch")
    first: dict[int, int] = {}
    for j in range(b.n):
        t = b.targets[j]
        if t in first:
            i = first[t]
            if a.targets[i] != a.targets[j]:
                return False
            if b.shifts[j] - b.shifts[i] != a.shifts[j] - a.shifts[i]:
                return False
        else:
            first[t] = j
    return True


def pc_image(theta: ActEndo) -> tuple[int, ...]:
    return tuple(sorted(target_set(theta)))


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


@dataclass(frozen=True)
class ActQuot:
    """t^k \\ (m, i) reduced to canonical form (m - k, i) in the
    overmonoid's copy of the act."""

    m: int
    i: int

    def as_dict(self):
        return {"m": self.m, "i": self.i + 1}


def act_quot(k: int, m: int, i_one_based: int) -> ActQuot:
    if k < 0:
        raise ValueError("translation power must be nonnegative")
    return ActQuot(m - k, i_one_based - 1)


def act_embed(m: int, i_one_based: int) -> ActQuot:
    if m < 0:
        raise ValueError("flavor B exponents are nonnegative")
    return act_quot(0, m, i_one_based)


def act_quotient_eq(p: ActQuot, q: ActQuot) -> bool:
    return p == q


# --- decomposition ----------------------------------------------------------


def act_left_decompose(alpha: ActEndo) -> tuple[ActEndo, ActEndo]:
    """alpha = a# b for an overmonoid endomorphism alpha: a is the unit
    translating every generator by d = max(0, -min shift), and b is alpha
    shifted by d, both with nonnegative shifts."""
    d = max(0, -min(alpha.shifts)) if alpha.shifts else 0
    a = ActEndo("B", (d,) * alpha.n, tuple(range(alpha.n)))
    b = ActEndo("B", tuple(s + d for s in alpha.shifts), alpha.targets)
    return a, b


def verify_act_decomposition(alpha: ActEndo, a: ActEndo, b: ActEndo) -> bool:
    """Exact recomposition: a must be a unit pattern (identity targets,
    constant shift d) and a# b must equal alpha in the overmonoid."""
    if a.targets != tuple(range(a.n)) or len(set(a.shifts)) > 1:
        return False
    d = a.shifts[0] if a.shifts else 0
    a_inv = ActEndo("A", (-d,) * a.n, a.targets)
    expected = ActEndo("A", alpha.shifts, alpha.targets)
    return compose(a_inv, lift_endo(b)) == expected


# --- the gamma constructions ------------------------------------------------


def gamma_left(alpha: ActEndo, beta: ActEndo) -> ActEndo:
    """gamma with PC(im(gamma then beta)) = PC(im alpha), given
    PC(im alpha) <= PC(im beta)."""
    if alpha.n != beta.n:
        raise ValueError("rank mismatch")
    if not greens_leq("Lstar", alpha, beta):
        raise PreconditionViolated("PC(im alpha) is not within PC(im beta)")
    if alpha.shifts == beta.shifts and alpha.targets == beta.targets:
        return act_identity(alpha.n)
    hit = sorted(target_set(alpha))
    pre = {j: min(i for i in range(beta.n) if beta.targets[i] == j) for j in hit}
    default = pre[hit[0]]
    targets = tuple(pre.get(j, default) for j in range(alpha.n))
    gamma = ActEndo("B", (0,) * alpha.n, targets)
    assert pc_image(compose(gamma, beta)) == pc_image(alpha)
    return gamma


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
    if alpha.shifts == beta.shifts and alpha.targets == beta.targets:
        return act_identity(alpha.n)
    hit = sorted(target_set(beta))
    pre = {j: min(i for i in range(beta.n) if beta.targets[i] == j) for j in hit}
    p = max(beta.shifts[pre[j]] for j in hit)
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
    gamma = ActEndo("B", tuple(shifts), tuple(targets))
    assert kernel_key(compose(beta, gamma)) == kernel_key(alpha)
    return gamma


# --- idempotents and subgroup classes ---------------------------------------


def lstar_idempotent(alpha: ActEndo) -> ActEndo:
    """An idempotent with the same pure-closure image as alpha."""
    hit = sorted(target_set(alpha))
    targets = tuple(j if j in target_set(alpha) else hit[0] for j in range(alpha.n))
    eps = ActEndo("B", (0,) * alpha.n, targets)
    assert compose(eps, eps) == eps and pc_image(eps) == pc_image(alpha)
    return eps


def rstar_idempotent(alpha: ActEndo) -> ActEndo:
    """An idempotent with the same kernel as alpha: each merge class is
    retracted onto its minimum-shift representative."""
    classes: dict[int, list[int]] = {}
    for i in range(alpha.n):
        classes.setdefault(alpha.targets[i], []).append(i)
    rep = {}
    for t, members in classes.items():
        r = min(members, key=lambda i: (alpha.shifts[i], i))
        for i in members:
            rep[i] = r
    shifts = tuple(alpha.shifts[i] - alpha.shifts[rep[i]] for i in range(alpha.n))
    targets = tuple(rep[i] for i in range(alpha.n))
    eps = ActEndo("B", shifts, targets)
    assert compose(eps, eps) == eps
    assert kernel_key(eps) == kernel_key(alpha)
    return eps


def _class_structure(alpha: ActEndo):
    """Merge classes of alpha ordered by least member, with per-member
    exponent offsets from the minimum-shift representative."""
    by_target: dict[int, list[int]] = {}
    for i in range(alpha.n):
        by_target.setdefault(alpha.targets[i], []).append(i)
    classes = sorted(by_target.values(), key=min)
    offsets = {}
    for members in classes:
        base = min(alpha.shifts[i] for i in members)
        for i in members:
            offsets[i] = alpha.shifts[i] - base
    return classes, offsets


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
        if i in rho:
            shifts.append(rng.randint(0, 5))
            targets.append(rho[i])
        else:
            anchor = rng.choice(t)
            shifts.append(rng.randint(0, 5))
            targets.append(rho[anchor])
    alpha = ActEndo("B", tuple(shifts), tuple(targets))
    assert is_square_cancellable(alpha)
    return alpha


def hstar_members(alpha: ActEndo):
    """Parametrization helpers for the class of endomorphisms sharing
    alpha's kernel and target set: (classes, offsets, targets)."""
    classes, offsets = _class_structure(alpha)
    return classes, offsets, sorted(target_set(alpha))


def hstar_element(
    alpha: ActEndo, assignment: dict[int, int], bases: dict[int, int]
) -> ActEndo:
    """The member of alpha's kernel/image class sending class k (indexed by
    least member) onto target assignment[k] with base shift bases[k]."""
    classes, offsets = _class_structure(alpha)
    shifts = [0] * alpha.n
    targets = [0] * alpha.n
    for members in classes:
        k = min(members)
        for i in members:
            shifts[i] = bases[k] + offsets[i]
            targets[i] = assignment[k]
    theta = ActEndo("B", tuple(shifts), tuple(targets))
    assert kernel_key(theta) == kernel_key(alpha)
    assert target_set(theta) == target_set(alpha)
    return theta


def rand_hstar_element(rng: random.Random, alpha: ActEndo) -> ActEndo:
    classes, _, hit = hstar_members(alpha)
    perm = list(hit)
    rng.shuffle(perm)
    assignment = {min(members): perm[k] for k, members in enumerate(classes)}
    bases = {min(members): rng.randint(0, 4) for members in classes}
    return hstar_element(alpha, assignment, bases)


def left_ore_solve(
    alpha: ActEndo, a: ActEndo, b: ActEndo
) -> tuple[ActEndo, ActEndo]:
    """u, v in the kernel/image class of alpha with u a = v b, computed by
    aligning both compositions onto a common target assignment and padding
    per-class base shifts to reconcile the exponents."""
    classes, _ = _class_structure(alpha)
    hit = sorted(target_set(alpha))
    # common target pattern: k-th class (by least member) onto k-th target
    want = {min(members): hit[k] for k, members in enumerate(classes)}

    def aligned(theta: ActEndo):
        # choose the class assignment whose theta-composition lands on the
        # common pattern: route class k to the generator theta sends onto
        # want[k] (theta permutes the hit set since alpha never merges two
        # of its own targets)
        inv = {theta.targets[t]: t for t in hit}
        assert len(inv) == len(hit)
        assignment = {min(members): inv[want[min(members)]] for members in classes}
        return assignment, {k: theta.shifts[g] for k, g in assignment.items()}

    assign_u, du = aligned(a)
    assign_v, dv = aligned(b)
    bases_u, bases_v = {}, {}
    for members in classes:
        k = min(members)
        m = max(du[k], dv[k])
        bases_u[k] = m - du[k]
        bases_v[k] = m - dv[k]
    u = hstar_element(alpha, assign_u, bases_u)
    v = hstar_element(alpha, assign_v, bases_v)
    assert compose(u, a) == compose(v, b)
    return u, v


# --- seeded sampling --------------------------------------------------------


def rand_act_endo(rng: random.Random, n: int, flavor: str = "B") -> ActEndo:
    lo = 0 if flavor == "B" else -5
    return ActEndo(
        flavor,
        tuple(rng.randint(lo, 5) for _ in range(n)),
        tuple(rng.randrange(n) for _ in range(n)),
    )
