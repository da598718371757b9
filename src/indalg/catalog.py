"""Finite desk-scale algebras with closure, exchange, clone and witness checks.

Each instance kind packages a small carrier with explicit operation tables:

* ``rank0``        -- every element is a constant (constant unary ops only);
* ``linear``       -- F_q^d with all maps sum(l_i * x_i) + a, a in a subspace A0;
* ``affine``       -- same but with sum(l_i) = 1 (translations as unary ops);
* ``exceptional``  -- the 4-element algebra with i = (01)(23) and the ternary
                      "repeated argument, else the fourth element" operation;
* ``group_action`` -- a permutation group acting on a set, constants A0, with
                      every non-identity fixed point inside A0;
* ``q_homog_field``-- F_q with all maps sum(l_i * x_i), sum(l_i) = 1, no
                      constants;
* ``semilattice``  -- negative control: the 3-element join-semilattice with
                      two incomparable atoms (its closure violates exchange).

Operations with arity <= 3 suffice to generate each clone at these sizes; the
bound is an explicit soundness boundary of the generation check, not a claim
about clones in general.

Every instance also names ``gen_ops``, a few basic ops (at most 30 for a
field kind, which has up to 775) that generate all of them by composition
(the tests check this per kind).  Closure, the unary clone and
endomorphisms are computed against ``gen_ops`` only: the same subalgebras,
unary term ops and homomorphisms, over far smaller tuple spaces.  The
witness check is decided on them too: W generates every basic op iff it
generates every gen op, and a unary map that preserves every gen op
preserves every op of the clone.
``make_instance`` builds gen_ops directly; the full list of basic ops,
``ops`` (7 to 775 tables for a field kind), is built the first time it is
read, and only the witness check reads it: to build a witness set, to tell
which W ops are not basic ops, and, only when W fails to generate some gen
op, to name the missing basic ops from the full goal.  Endomorphisms are
searched over a generating set, as UACalc searches homomorphisms: each
assignment of images to the generators is filled in along one recorded
derivation per element and kept iff it preserves every op, and
``TooLarge`` is raised up front when there are more assignments than a
budget; the exchange check enumerates only the closed sets (Ganter's
NextClosure) and memoizes closures by generating set.

Closure runs a whole table at a time: each round applies every non-constant
gen op to all tuples over the set so far with one composition.  One
semi-naive fixpoint, ``_fixpoint``, serves the derivations of the
endomorphism search (elements under the basic ops), the unary clone (unary
tables under composition) and clone generation (tables of each arity under
composition by the witness ops).  It yields each element as it is found, in
an order independent of hashing, so generation stops as soon as its last
target appears and its step and table caps trip at the same place in every
process.  A search that can be sized beforehand (exchange, endomorphisms)
is refused up front with ``TooLarge``; generation cannot be, so a cap it
passes partway raises ``BudgetExhausted``, which names the counter and its
cap, and the witness check ends inconclusive rather than refused.

Op tables are composed by one byte-table kernel, ``_compose``: closure, the
unary clone and clone generation compose tables whole.  It runs no Python
code per entry: it reads each argument table as one big integer with one
lane per entry, forms every entry's index into f's table at once, and reads
the table through the indices with one ``translate`` -- byte lanes for
tables of at most 256 entries, 16-bit lanes decoded as UTF-16 for longer
ones (every table here has at most 25**3 = 15,625 < 0xD800 entries, so each
index is one code unit outside the surrogate range).  Lanes never carry
because every table entry is below its op's size, which the tests check for
every instance kind.  The field ops are built row by row from the tables of
their coefficient prefixes.  The witness check and the endomorphism search
test that a unary map preserves an op one whole table at a time, by
comparing two tables; the witness check looks for the first failing tuple
only when they differ.  No table is built at import.
"""

from __future__ import annotations

import itertools
from functools import cached_property
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Sequence

EXCHANGE_CAP = 16
# endomorphism search: n^g assignments of images to g generators; g <= n,
# so every carrier of size n <= 7 is under the cap (7^7 = 823,543)
ENDO_ASSIGNMENT_CAP = 1_000_000
GEN_TABLE_CAP = 8192
GEN_STEP_CAP = 20_000_000

FIELD_ORDERS = (2, 3, 5)


class InvalidParams(ValueError):
    """Instance parameters violate a construction precondition."""


class TooLarge(RuntimeError):
    """Exhaustive check requested beyond its feasibility bound."""


class BudgetExhausted(RuntimeError):
    """A search passed one of its caps partway: ``counter`` names what it
    counted and ``cap`` the bound it passed."""

    def __init__(self, counter: str, cap: int):
        super().__init__(f"{counter} passed its cap {cap}")
        self.counter = counter
        self.cap = cap


class Op(NamedTuple):
    """Total operation on {0..size-1}, table flat row-major (last arg fastest)."""

    name: str
    arity: int
    size: int
    table: bytes

    def __call__(self, *args: int) -> int:
        idx = 0
        for a in args:
            idx = idx * self.size + a
        return self.table[idx]

    def is_constant(self) -> bool:
        return len(set(self.table)) == 1


class FiniteAlgebra:
    """An algebra on {0..size-1}.  ``gen_ops`` are basic ops generating
    every basic op by composition; closure, the unary clone and the
    endomorphism search run against them (same results, much smaller tuple
    spaces).  ``build_ops`` returns every basic op; it runs once, the first
    time ``ops`` is read, so the checks that read gen_ops alone never build
    the full list.  The fields refuse assignment."""

    def __init__(self, kind: str, size: int, gen_ops: tuple[Op, ...],
                 build_ops: Callable[[], tuple[Op, ...]]):
        vars(self).update(kind=kind, size=size, gen_ops=gen_ops, build_ops=build_ops)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of an algebra")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of an algebra")

    @cached_property
    def ops(self) -> tuple[Op, ...]:
        return self.build_ops()

    @property
    def elements(self) -> range:
        return range(self.size)

    def __repr__(self) -> str:  # params live in the op names
        return (f"FiniteAlgebra({self.kind}, size={self.size}, "
                f"gen_ops={len(self.gen_ops)})")


# ---------------------------------------------------------------------------
# instance construction


def _vec(idx: int, q: int, dim: int) -> tuple[int, ...]:
    out = []
    for p in range(dim - 1, -1, -1):
        out.append((idx // q**p) % q)
    return tuple(out)


def _vidx(v: Sequence[int], q: int) -> int:
    idx = 0
    for c in v:
        idx = idx * q + c
    return idx


def _span(vectors: Sequence[Sequence[int]], q: int, dim: int) -> list[int]:
    pts = {(0,) * dim}
    for coeffs in itertools.product(range(q), repeat=len(vectors)):
        v = tuple(
            sum(c * vec[i] for c, vec in zip(coeffs, vectors)) % q
            for i in range(dim)
        )
        pts.add(v)
    return sorted(_vidx(v, q) for v in pts)


def _field_tables(q: int, dim: int) -> tuple[bytes, list[bytes]]:
    """The tables of x + y and of x -> l * x, one per l in F_q, on F_q^dim."""
    size = q**dim
    vecs = [_vec(i, q, dim) for i in range(size)]
    add = bytes(
        _vidx([(x + y) % q for x, y in zip(u, v)], q) for u in vecs for v in vecs
    )
    scal = [bytes(_vidx([(lam * x) % q for x in v], q) for v in vecs)
            for lam in range(q)]
    return add, scal


def _field_gen_ops(kind: str, tables: tuple[bytes, list[bytes]],
                   a0: list[int]) -> tuple[Op, ...]:
    """The gen_ops of a field kind, built without the other basic ops, from
    its ``_field_tables``.

    ``linear``: x+y, every l*x with l != 0 and the constants a in a0;
    ``affine``: x-y+z and the translations x+a; ``q_homog_field``: x-y+z.
    Each has the name and table of its op in ``_field_ops``'s list.
    """
    add, scal = tables
    q, size = len(scal), len(scal[0])
    if kind == "linear":
        return (Op("f(1,1)+0", 2, size, add),
                *(Op(f"f({lam})+0", 1, size, scal[lam]) for lam in range(1, q)),
                *(Op(f"f(0)+{a}", 1, size, bytes([a]) * size) for a in a0))
    plus = Op("+", 2, size, add)
    x, y, z = _projections(size, 3)
    minus_y = y.translate(scal[q - 1].ljust(256, b"\0"))
    maltsev = _compose(plus, [_compose(plus, [x, minus_y]), z])
    if kind == "q_homog_field":
        return (Op(f"f(1,{q-1},1)", 3, size, maltsev),)
    return (Op(f"f(1,{q-1},1)+0", 3, size, maltsev),
            *(Op(f"f(1)+{a}", 1, size, add[a * size:(a + 1) * size]) for a in a0))


def _field_ops(tables: tuple[bytes, list[bytes]], a0: list[int],
               affine_only: bool, with_const: bool) -> list[Op]:
    """Every map sum(l_i * x_i) (+ a for a in a0) of arity 1-3 on F_q^dim,
    from its ``_field_tables``.

    The table of (l_1, ..., l_k) is built once from that of its prefix
    (l_1, ..., l_{k-1}), the previous arity's: with the first k-1 arguments
    fixed, the prefix value c is constant, so each row of the table is the
    row of x -> c + l_k * x.  The empty prefix is the constant 0.  Each
    shift +a is one more translation of the table.
    """
    add, scal = tables
    q, size = len(scal), len(scal[0])
    # rows[l][c]: the table of x -> c + l * x
    rows = [[bytes(add[c * size + s] for s in scal[l]) for c in range(size)]
            for l in range(q)]
    # bytes.translate tables (256 entries) of x -> a + x
    plus = {a: add[a * size:(a + 1) * size].ljust(256, b"\0") for a in a0}
    ops = []
    tables = {(): b"\0"}
    for arity in (1, 2, 3):
        # insertion order is itertools.product order: prefix first, l_k last
        tables = {lam + (l,): b"".join(map(rows[l].__getitem__, prefix))
                  for lam, prefix in tables.items() for l in range(q)}
        for lam, table in tables.items():
            if affine_only and sum(lam) % q != 1:
                continue
            tag = ",".join(map(str, lam))
            if not with_const:
                ops.append(Op(f"f({tag})", arity, size, table))
                continue
            for a in a0:
                ops.append(Op(f"f({tag})+{a}", arity, size, table.translate(plus[a])))
    return ops


def _int(x, what: str) -> int:
    """x itself if it is an integer; a float, bool or string is refused."""
    if type(x) is not int:
        raise InvalidParams(f"{what} must be an integer, not {x!r}")
    return x


def _list(x, what: str) -> Sequence:
    """x itself if it is a list (or tuple); a number, string or null is
    refused."""
    if not isinstance(x, (list, tuple)):
        raise InvalidParams(f"{what} must be a list, not {x!r}")
    return x


def _validate_field_params(q: int, dim: int, a0):
    if q not in FIELD_ORDERS:
        raise InvalidParams(f"field order must be one of {FIELD_ORDERS}, got {q}")
    if dim not in (1, 2):
        raise InvalidParams(f"dimension must be 1 or 2, got {dim}")
    vecs = [tuple(_list(v, "a0 entry")) for v in _list(a0, "a0")]
    for v in vecs:
        if len(v) != dim or any(not (0 <= _int(c, "a0 entry") < q) for c in v):
            raise InvalidParams(f"spanning vector {v} not in F_{q}^{dim}")
    return vecs


def make_instance(kind: str, **params) -> FiniteAlgebra:
    if kind == "rank0":
        size = _int(params.pop("size", 3), "size")
        _no_extra(params)
        if not 1 <= size <= 8:
            raise InvalidParams("rank0 size must be in [1,8]")
        ops = tuple(
            Op(f"c{a}", 1, size, bytes([a] * size)) for a in range(size)
        )
        return FiniteAlgebra(kind, size, ops, lambda: ops)

    if kind in ("linear", "affine"):
        q = _int(params.pop("q", 3), "q")
        dim = _int(params.pop("dim", 1), "dim")
        a0_vecs = _validate_field_params(q, dim, params.pop("a0", [[1] * dim]))
        _no_extra(params)
        a0 = _span(a0_vecs, q, dim)
        tables = _field_tables(q, dim)
        return FiniteAlgebra(
            kind, q**dim, _field_gen_ops(kind, tables, a0),
            lambda: tuple(_field_ops(tables, a0, affine_only=(kind == "affine"),
                                     with_const=True)))

    if kind == "exceptional":
        _no_extra(params)
        i_table = bytes((1, 0, 3, 2))
        q_table = bytearray()
        for x, y, z in itertools.product(range(4), repeat=3):
            if x == y or x == z:
                q_table.append(x)
            elif y == z:
                q_table.append(y)
            else:
                q_table.append(6 - x - y - z)
        ops = (Op("i", 1, 4, i_table), Op("q", 3, 4, bytes(q_table)))
        return FiniteAlgebra(kind, 4, ops, lambda: ops)

    if kind == "group_action":
        size = _int(params.pop("size", 5), "size")
        perms = [tuple(_int(x, "generators entry")
                       for x in _list(p, "generators entry"))
                 for p in _list(params.pop("generators", [(0, 2, 1, 4, 3)]),
                                "generators")]
        consts = sorted({_int(c, "constants entry")
                         for c in _list(params.pop("constants", [0]), "constants")})
        _no_extra(params)
        if not 1 <= size <= 8:
            raise InvalidParams("group_action size must be in [1,8]")
        for p in perms:
            if sorted(p) != list(range(size)):
                raise InvalidParams(f"{p} is not a permutation of 0..{size-1}")
        if any(not 0 <= c < size for c in consts):
            raise InvalidParams("constants outside the carrier")
        group = _perm_group(perms, size)
        ident = tuple(range(size))
        for g in group:
            if g == ident:
                continue
            bad = [x for x in range(size) if g[x] == x and x not in consts]
            if bad:
                raise InvalidParams(
                    f"fixed point {bad[0]} of {g} lies outside the constants"
                )
        ops = tuple(
            [Op(f"g{k}", 1, size, bytes(p)) for k, p in enumerate(perms)]
            + [Op(f"c{a}", 1, size, bytes([a] * size)) for a in consts]
        )
        return FiniteAlgebra(kind, size, ops, lambda: ops)

    if kind == "q_homog_field":
        q = _int(params.pop("q", 3), "q")
        _no_extra(params)
        if q not in FIELD_ORDERS:
            raise InvalidParams(f"field order must be one of {FIELD_ORDERS}")
        tables = _field_tables(q, 1)
        return FiniteAlgebra(
            kind, q, _field_gen_ops(kind, tables, [0]),
            lambda: tuple(_field_ops(tables, [0], affine_only=True, with_const=False)))

    if kind == "semilattice":
        _no_extra(params)
        table = bytearray()
        for x, y in itertools.product(range(3), repeat=2):
            table.append(x if x == y else 2)
        ops = (Op("join", 2, 3, bytes(table)),)
        return FiniteAlgebra(kind, 3, ops, lambda: ops)

    raise InvalidParams(f"unknown kind {kind!r}")


def _no_extra(params: dict) -> None:
    if params:
        raise InvalidParams(f"unexpected parameters: {sorted(params)}")


def _perm_group(gens: list[tuple[int, ...]], size: int) -> set:
    group = {tuple(range(size))}
    frontier = list(group)
    while frontier:
        nxt = []
        for g in frontier:
            for p in gens:
                h = tuple(p[g[x]] for x in range(size))
                if h not in group:
                    group.add(h)
                    nxt.append(h)
        frontier = nxt
    return group


# ---------------------------------------------------------------------------
# closure and exchange


def _tuples_touching(old: list, new: list, k: int) -> Iterator[tuple]:
    """Every k-tuple over old + new with an entry in new, each exactly once.

    Tuples are grouped by the first position holding an element of new; the
    positions before it range over old only.
    """
    every = old + new
    for pos in range(k):
        yield from itertools.product(*([old] * pos + [new] + [every] * (k - pos - 1)))


def _fixpoint(ops: Sequence[Op], start: Iterable, apply) -> Iterator:
    """Close start under x -> apply(op, args) for every op (semi-naive rounds).

    Yields the start elements, then each new element as it is found.  A
    round's finds are kept in a list, so the yield order does not depend on
    hashing and a consumer may stop partway through a round.
    """
    new = list(dict.fromkeys(start))
    have = set(new)
    yield from new
    old: list = []
    while new:
        found = []
        for op in ops:
            for args in _tuples_touching(old, new, op.arity):
                v = apply(op, args)
                if v not in have:
                    have.add(v)
                    found.append(v)
                    yield v
        old += new
        new = found


def closure(alg: FiniteAlgebra, xs: Iterable[int]) -> frozenset[int]:
    """Subalgebra generated by xs (with every constant-op value included).

    Each round applies every non-constant gen op f of arity k to all of S^k
    at once, S the set so far: the k projection tables of S^k, read through
    S's sorted elements, are composed with f in one ``_compose``.  The
    rounds stop when one adds nothing.
    """
    have = set(xs)
    ops = []
    for op in alg.gen_ops:
        if op.is_constant():
            have.add(op.table[0])
        else:
            ops.append(op)
    while True:
        elems = bytes(sorted(have)).ljust(256, b"\0")
        found = set()
        for op in ops:
            found.update(_compose(op, [p.translate(elems)
                                       for p in _projections(len(have), op.arity)]))
        if found <= have:
            return frozenset(have)
        have |= found


class ExchangeResult(NamedTuple):
    holds: bool
    witness: Optional[tuple[tuple[int, ...], int, int]]  # (X, y, z)


def _closed_sets(n: int, cl) -> Iterator[frozenset[int]]:
    """Every closed set of the closure operator cl on {0..n-1}, in lectic order.

    Ganter's NextClosure: the successor of closed A is cl(A below i + {i}) for
    the largest i not in A whose closure adds nothing below i.
    """
    a = cl(())
    while True:
        yield a
        for i in range(n - 1, -1, -1):
            if i in a:
                continue
            b = cl({x for x in a if x < i} | {i})
            if min(b - a) == i:
                a = b
                break
        else:
            return


def check_exchange(alg: FiniteAlgebra) -> ExchangeResult:
    """Exhaustively test: y in <X+{z}> \\ <X> implies z in <X+{y}>.

    X ranges over the closed sets only, since <X+{z}> = <<X>+{z}>, in
    (size, elements) order, so the first witness found is the smallest.
    """
    n = alg.size
    if n > EXCHANGE_CAP:
        raise TooLarge(f"carrier size {n} exceeds the exhaustive bound {EXCHANGE_CAP}")
    memo: dict[frozenset[int], frozenset[int]] = {}

    def cl(xs: Iterable[int]) -> frozenset[int]:
        key = frozenset(xs)
        if key not in memo:
            memo[key] = closure(alg, key)
        return memo[key]

    closed = sorted(_closed_sets(n, cl), key=lambda s: (len(s), sorted(s)))
    for c in closed:
        for z in range(n):
            if z in c:
                continue
            for y in sorted(cl(c | {z}) - c):
                if z not in cl(c | {y}):
                    return ExchangeResult(False, (tuple(sorted(c)), y, z))
    return ExchangeResult(True, None)


# ---------------------------------------------------------------------------
# unary clone and endomorphisms


class UnaryClone(NamedTuple):
    t_ops: tuple[bytes, ...]  # non-constant, sorted
    constants: tuple[bytes, ...]


def unary_clone(alg: FiniteAlgebra) -> UnaryClone:
    """All unary term operations, split into non-constant (T) and constant.

    The identity closed under the generating ops: every unary term over the
    basic ops is one over gen_ops, which generate them.
    """
    seen = list(_fixpoint(alg.gen_ops, [bytes(range(alg.size))], _compose))
    t_ops = sorted(t for t in seen if len(set(t)) > 1)
    consts = sorted(t for t in seen if len(set(t)) == 1)
    return UnaryClone(tuple(t_ops), tuple(consts))


def endomorphisms(alg: FiniteAlgebra) -> list[tuple[int, ...]]:
    """All self-maps commuting with every basic operation, sorted.

    A homomorphism is fixed by its values on a generating set, and a map
    commutes with every basic op iff it commutes with gen_ops, which
    generate them.  Constants are fixed points.  One closure from the
    constants, restarted from the smallest missing element whenever it stops
    short, picks the generators and records one derivation v = f(args) per
    other element.  Each assignment of images to the generators fills phi
    along the derivations and is kept iff it preserves every non-constant
    gen op, checked one whole table at a time as in ``check_witness``.  More
    than ENDO_ASSIGNMENT_CAP assignments raises TooLarge before any search.
    """
    n = alg.size
    # phi(a) = a settles a constant op with value a for every argument tuple
    fixed = sorted({op.table[0] for op in alg.gen_ops if op.is_constant()})
    ops = [op for op in alg.gen_ops if not op.is_constant()]
    last: tuple = ()

    def apply(op: Op, args: tuple) -> int:
        nonlocal last
        last = (op, args)
        return op(*args)

    placed = dict.fromkeys(fixed)
    plan: list[tuple] = []  # (v, op, args); op None marks a generator
    while True:
        for v in _fixpoint(ops, list(placed), apply):
            if v not in placed:
                placed[v] = None
                plan.append((v, *last))
        missing = next((x for x in range(n) if x not in placed), None)
        if missing is None:
            break
        placed[missing] = None
        plan.append((missing, None, ()))
    gens = sum(op is None for _, op, _ in plan)
    if n ** gens > ENDO_ASSIGNMENT_CAP:
        raise TooLarge(f"endomorphism search needs {n}^{gens} assignments, "
                       f"over {ENDO_ASSIGNMENT_CAP}")
    projs = {op.arity: _projections(n, op.arity) for op in ops}
    phi = list(range(n))
    out = []
    for images in itertools.product(range(n), repeat=gens):
        image = iter(images)
        for v, op, args in plan:
            phi[v] = next(image) if op is None else op(*[phi[a] for a in args])
        t = bytes(phi).ljust(256, b"\0")
        moved = {m: [p.translate(t) for p in ps] for m, ps in projs.items()}
        if all(op.table.translate(t) == _compose(op, moved[op.arity]) for op in ops):
            out.append(tuple(phi))
    return sorted(out)


# ---------------------------------------------------------------------------
# clone generation and witness checking


def _projections(n: int, m: int) -> list[bytes]:
    """The m projection tables of arity m on {0..n-1}."""
    return [b"".join(bytes((x,)) * n ** (m - 1 - i) for x in range(n)) * n**i
            for i in range(m)]


def _compose(f: Op, gs: Sequence[bytes]) -> bytes:
    """The table of f(g_1, ..., g_k) for equal-length argument tables g_i.

    The byte-table kernel under every composition in this module; no Python
    code runs per entry.  Each argument table is read as one big integer
    with one lane per entry, and ``idx = idx * n + g`` builds every entry's
    flat row-major index into f's table at once.  No lane carries into the
    next, because every argument entry is below n = f.size (every op table
    holds entries below its size) and so every index is below len(f.table).
    f's table is then read through the indices in one C call:

    * at most 256 entries: byte lanes, read by ``bytes.translate``;
    * longer tables: 16-bit little-endian lanes, decoded as UTF-16 and read
      by ``str.translate``.  Each index is one code unit outside the
      surrogate range, since every catalog table has at most 25**3 = 15,625
      < 0xD800 entries.
    """
    ft, n, m = f.table, f.size, len(gs[0])
    idx = 0
    if len(ft) <= 256:
        for g in gs:
            idx = idx * n + int.from_bytes(g, "big")
        return idx.to_bytes(m, "big").translate(ft.ljust(256, b"\0"))
    lanes = bytearray(2 * m)
    for g in gs:
        lanes[::2] = g
        idx = idx * n + int.from_bytes(lanes, "little")
    return (idx.to_bytes(2 * m, "little").decode("utf-16-le")
            .translate(ft).encode("latin-1"))


def generated_covers(alg: FiniteAlgebra, seed: Sequence[Op],
                     targets: set[tuple[int, bytes]]) -> set[tuple[int, bytes]]:
    """Which (arity, table) targets lie in the clone generated by seed?

    Per arity m, the fixpoint of the projections and seed's m-ary tables
    under composition by seed ops (outer op always from seed; complete since
    every term unfolds to seed-rooted compositions of same-arity pieces).
    Early exit once all targets are found.  Past GEN_STEP_CAP compositions
    or GEN_TABLE_CAP tables of one arity it raises BudgetExhausted.
    """
    found = set()
    steps = 0

    def compose(f: Op, gs: Sequence[bytes]) -> bytes:
        nonlocal steps
        steps += 1
        if steps > GEN_STEP_CAP:
            raise BudgetExhausted("generation_steps", GEN_STEP_CAP)
        return _compose(f, gs)

    for m in (1, 2, 3):
        want = {tbl for a, tbl in targets if a == m}
        if not want:
            continue
        start = _projections(alg.size, m) + [op.table for op in seed if op.arity == m]
        for count, tbl in enumerate(_fixpoint(seed, start, compose), 1):
            if count > GEN_TABLE_CAP:
                raise BudgetExhausted("generated_tables", GEN_TABLE_CAP)
            if tbl in want:
                found.add((m, tbl))
                want.discard(tbl)
                if not want:
                    break
    return found


class WitnessSet(NamedTuple):
    name: str
    ops: tuple[Op, ...]


class WitnessReport(NamedTuple):
    generates: bool
    missing: tuple[str, ...]       # basic ops not generated by W
    non_clone: tuple[str, ...]     # W members not in the clone
    violations: tuple[dict, ...]   # first failing tuple per (a, t) pair

    @property
    def ok(self) -> bool:
        return self.generates and not self.non_clone and not self.violations


def witness_set(alg: FiniteAlgebra, variant: str) -> WitnessSet:
    """The canonical generating set proposed for each instance kind: the
    "standard" variant, or "plus" for a linear one."""
    if variant != "standard" and not (variant == "plus" and alg.kind == "linear"):
        raise InvalidParams(f"no witness variant {variant!r} for kind {alg.kind}")
    if alg.kind == "linear":
        by_name = {op.name: op for op in alg.ops}
        unary = [op for op in alg.ops if op.arity == 1]
        if variant == "plus":
            return WitnessSet("plus+unary", tuple([by_name["f(1,1)+0"]] + unary))
        q = next(p for p in FIELD_ORDERS if alg.size in (p, p * p))
        g = by_name[f"f(1,{q-1},1)+0"]  # x-y+z
        return WitnessSet("maltsev+unary", tuple([g] + unary))
    if alg.kind == "exceptional":
        return WitnessSet("i,q", alg.ops)
    if alg.kind in ("rank0", "group_action"):
        return WitnessSet("unary-ops", tuple(op for op in alg.ops if op.arity == 1))
    # affine, q_homog_field, semilattice: every basic op (arity <= 3)
    return WitnessSet("all-basic-ops", alg.ops)


def check_witness(alg: FiniteAlgebra, witness: WitnessSet) -> WitnessReport:
    """Generation check plus the distributivity scan of T over W (arity >= 2),
    both decided on gen_ops, which generate every basic op.

    W generates every basic op iff it generates every gen op outside W and
    the projections; only when it does not is the full goal (every basic op)
    generated, to name the missing ones.  Whether a W op outside the basic
    ops lies in the clone is asked of the clone gen_ops generate.

    a in T preserves f iff a(f(x)) = f(a(x)) for every x: the table of
    a(f(x)) is f's table translated through a, that of f(a(x)) is f composed
    with the projections translated through a, and the two are compared a
    whole table at a time.  An a that preserves every gen op is an
    endomorphism, so it preserves every op of the clone and only the W ops
    outside it are scanned; any other a is scanned against every W op.  A
    violation records the first failing tuple.
    """
    n = alg.size
    projs = {m: _projections(n, m) for m in (1, 2, 3)}
    proj = {(m, t) for m, ts in projs.items() for t in ts}
    wtabs = {(op.arity, op.table) for op in witness.ops}
    btabs = {(op.arity, op.table) for op in alg.ops}

    missing: tuple[str, ...] = ()
    gen_goal = {(op.arity, op.table) for op in alg.gen_ops} - wtabs - proj
    if gen_goal and generated_covers(alg, witness.ops, gen_goal) != gen_goal:
        goal = btabs - wtabs - proj
        ungenerated = goal - generated_covers(alg, witness.ops, goal)
        missing = tuple(
            sorted(op.name for op in alg.ops if (op.arity, op.table) in ungenerated)
        )

    alien = wtabs - btabs - proj
    outside = alien - generated_covers(alg, alg.gen_ops, alien) if alien else set()
    non_clone = tuple(
        sorted(op.name for op in witness.ops if (op.arity, op.table) in outside)
    )

    t_ops = unary_clone(alg).t_ops
    wops = [op for op in witness.ops if op.arity >= 2]
    wops_outside = [op for op in wops if (op.arity, op.table) in outside]
    # checking a against the gen ops shortens its scan only if some W op
    # lies in the clone
    gens = alg.gen_ops if len(wops_outside) < len(wops) else ()
    arities = {op.arity for op in (*wops, *gens)}
    violations = []
    for a in t_ops:
        at = a.ljust(256, b"\0")
        moved = {m: [p.translate(at) for p in projs[m]] for m in arities}
        endo = all(op.table.translate(at) == _compose(op, moved[op.arity])
                   for op in gens)
        for op in wops_outside if endo else wops:
            lhs = op.table.translate(at)
            rhs = _compose(op, moved[op.arity])
            if lhs != rhs:
                t = next(i for i, (x, y) in enumerate(zip(lhs, rhs)) if x != y)
                violations.append({
                    "a": list(a),
                    "op": op.name,
                    "args": [p[t] for p in projs[op.arity]],
                    "lhs": lhs[t],
                    "rhs": rhs[t],
                })
    return WitnessReport(not missing, missing, non_clone, tuple(violations))


DEFAULT_INSTANCES: tuple[tuple[str, dict], ...] = (
    ("rank0", {"size": 3}),
    ("linear", {"q": 3, "dim": 1, "a0": [[1]]}),
    ("linear", {"q": 2, "dim": 2, "a0": []}),
    ("affine", {"q": 2, "dim": 2, "a0": [[1, 0]]}),
    ("affine", {"q": 3, "dim": 1, "a0": [[1]]}),
    ("exceptional", {}),
    ("group_action", {"size": 5, "generators": [[0, 2, 1, 4, 3]], "constants": [0]}),
    ("q_homog_field", {"q": 3}),
    ("q_homog_field", {"q": 5}),
)


def default_catalog() -> list[FiniteAlgebra]:
    return [make_instance(kind, **dict(p)) for kind, p in DEFAULT_INSTANCES]
