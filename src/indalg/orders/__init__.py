"""Order-theoretic structure of endomorphism monoids: Green's relations
and their starred refinements, group inverses, left/right decompositions,
quotient elements, Ore checks, and the sampled verification suites.

Two backends are provided: ``matrix`` (integer matrices inside rational
ones) and ``act`` (endomorphisms of a free monoid act inside its
overmonoid), with one surface of the same names (listed in ``matrix``).
"""
