"""Order-theoretic structure of endomorphism monoids: Green's relations
and their starred refinements, group inverses, left/right decompositions,
quotient elements, Ore checks, and the sampled verification suites.

Two sibling backends, neither importing the other: ``matrix`` (integer
matrices inside rational ones) and ``acts`` (endomorphisms of a free monoid
act inside its overmonoid), with one surface of the same names (listed in
``matrix``).  ``randints``, the seeded-draw rule that they and the suites
use, lives here.
"""


def randints(rng, bounds) -> list[int]:
    """One draw of ``rng.randint(lo, hi)`` per ``(lo, hi)`` in ``bounds``,
    in order, leaving the ``random.Random`` rng as those calls do: each is
    read straight from ``rng.getrandbits`` by ``_randbelow``'s rule,
    ``width.bit_length()`` bits drawn again while the value is ``width`` or
    more.  A draw in ``(0, n - 1)`` is ``rng.randrange(n)``, and indexes as
    ``rng.choice``."""
    bits = rng.getrandbits
    out = []
    for lo, hi in bounds:
        width = hi - lo + 1
        k = width.bit_length()
        x = bits(k)
        while x >= width:
            x = bits(k)
        out.append(lo + x)
    return out
