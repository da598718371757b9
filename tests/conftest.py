"""Test configuration shared by the suite.

The ``hypothesis`` profile below derandomizes every property test, so each
run draws the same examples, and keeps no example database, so a run
leaves no ``.hypothesis/`` directory behind.  Per-test ``@settings`` still
apply on top of it.
"""

from hypothesis import settings

settings.register_profile("indalg", derandomize=True, database=None, deadline=None)
settings.load_profile("indalg")
