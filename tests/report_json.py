"""The canonical text of a JSON report, checked against ``json`` itself.

Every report is printed as ``json.dumps(report, indent=2, sort_keys=True)``
plus a newline.  ``canonical_report`` parses a printed report and asserts
that its text is exactly that, so a writer that strays shows as a diff of
the two texts, not only as a changed digest.  ``conftest.py`` registers
this module for pytest's assertion rewriting, which prints the diff.
"""

from __future__ import annotations

import json


def canonical_report(out: str) -> dict:
    """The report printed as ``out``, after asserting that ``out`` is its
    canonical text."""
    report = json.loads(out)
    assert out == json.dumps(report, indent=2, sort_keys=True) + "\n"
    return report
