"""Test configuration shared by the suite.

The ``hypothesis`` profile below derandomizes every property test, so each
run draws the same examples, and keeps no example database.  Hypothesis
still caches the constants it collects from the source under
``.hypothesis/constants/``, so a run does leave a ``.hypothesis/``
directory behind; ``.gitignore`` lists it.  Per-test ``@settings`` still
apply on top of it.
"""

from hypothesis import settings

settings.register_profile("indalg", derandomize=True, database=None, deadline=None)
settings.load_profile("indalg")
