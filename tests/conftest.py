"""Test configuration shared by the suite.

The ``hypothesis`` profile below derandomizes every property test, so each
run draws the same examples, and keeps no example database.  Hypothesis
still caches the constants it collects from the source under
``.hypothesis/constants/``, so a run does leave a ``.hypothesis/``
directory behind; ``.gitignore`` lists it.  Per-test ``@settings`` still
apply on top of it.

``report_json`` is a helper module, not a test file, so pytest rewrites its
asserts only when asked to, here, before any test imports it.
"""

import pytest
from hypothesis import settings

pytest.register_assert_rewrite("report_json")

settings.register_profile("indalg", derandomize=True, database=None, deadline=None)
settings.load_profile("indalg")
