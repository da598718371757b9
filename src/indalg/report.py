"""The check record every report is made of.

A check carries an ``expected`` outcome ("pass" or "finding") next to the
``outcome`` actually observed, so that mathematically expected failures
are told apart from genuine errors.  ``Check`` is a plain class whose
``vars`` is its serialised form: a report lists ``vars(check)`` for each
check, so its instance attributes are exactly ``name``, ``expected``,
``outcome`` and ``details``.  ``max_digits`` is the most digits an
integer in a report may have: the interpreter's print limit.

``to_json`` writes a report: the text ``json.dumps(report, indent=2,
sort_keys=True)`` gives, byte for byte, for a value made of dicts with str
keys, lists, str, int, bool and None.  Any other key or value type, a tuple
or a float among them, raises TypeError instead of being written.  Its
strings are escaped by ``_json``'s C escaper, the one ``json.encoder``
uses, so writing a report loads no part of the ``json`` package; without
``_json`` it is ``json.encoder``'s pure-Python one, as in ``json`` itself.

A search with a budget ends in one of two ways.  One refused for its
size before any work is a usage error (exit 2): ``check_exchange``
above ``catalog.EXCHANGE_CAP`` elements, an endomorphism search above
``catalog.ENDO_ASSIGNMENT_CAP`` assignments, ``ore_check`` above
``monoids.MAX_ELEMENTS`` (256) elements and ``sample_terms`` deeper than
``terms.MAX_SAMPLE_DEPTH`` (12).  One that runs out partway ends its check
``inconclusive``, with the counter and its cap in the details, and the
report exits 1: clone generation past ``catalog.GEN_STEP_CAP`` steps or
``catalog.GEN_TABLE_CAP`` tables (``exhausted`` and ``cap``), and a
distributivity witness search past ``counterexample.SAMPLE_BUDGET``
samples (``inconclusive`` and ``witness_budget``).
"""

from __future__ import annotations

import sys

try:  # json's C escaper, without the json package around it
    from _json import encode_basestring_ascii
except ImportError:  # no accelerator: the pure-Python one json.encoder uses
    from json.encoder import encode_basestring_ascii


class Check:
    def __init__(self, name: str, expected: str = "pass", outcome: str = "pass",
                 *, details: dict):
        self.name = name
        self.expected = expected
        self.outcome = outcome
        self.details = details

    def __eq__(self, other):
        if type(other) is not Check:
            return NotImplemented
        return vars(self) == vars(other)

    def __repr__(self) -> str:
        return f"Check({', '.join(f'{k}={v!r}' for k, v in vars(self).items())})"

    @classmethod
    def sampled(cls, name: str) -> Check:
        """A check judged sample by sample through ``record``."""
        return cls(name, details={"samples": 0, "failures": []})

    def record(self, ok: bool, witness=None) -> None:
        """Count one sample; a failing one fails the check and keeps the
        first three witnesses.  A callable witness is called, with no
        arguments, only when it is kept."""
        self.details["samples"] += 1
        if not ok:
            self.outcome = "fail"
            self.details["failed"] = self.details.get("failed", 0) + 1
            if len(self.details["failures"]) < 3:
                if callable(witness):
                    witness = witness()
                self.details["failures"].append(witness)


def max_digits() -> int:
    """The most digits an integer may have to be printed in a report."""
    return sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits


def printable(n: int) -> bool:
    """Whether n has at most ``max_digits()`` digits.  A number of at most
    3 * limit bits is below 8**limit, so only a longer one is compared with
    10**limit."""
    limit = max_digits()
    return abs(n).bit_length() <= 3 * limit or abs(n) < 10**limit


_CONSTANTS = {True: "true", False: "false", None: "null"}


def to_json(value) -> str:
    """``json.dumps(value, indent=2, sort_keys=True)`` for a report-shaped
    value; see the module docstring."""
    out: list[str] = []
    _write(value, out.append, "\n")
    return "".join(out)


def _write(x, put, newline: str) -> None:
    """Append the pieces of x, at the indent that ``newline`` ends with,
    through put.  The escapes and integer digits are json's own."""
    kind = type(x)
    if kind is str:
        put(encode_basestring_ascii(x))
    elif kind is int:
        put(int.__repr__(x))
    elif kind is bool or x is None:
        put(_CONSTANTS[x])
    elif kind is dict:
        if not x:
            put("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key in sorted(x):
            put(sep)
            put(encode_basestring_ascii(key))  # TypeError unless key is a str
            put(": ")
            _write(x[key], put, inner)
            sep = "," + inner
        put(newline + "}")
    elif kind is list:
        if not x:
            put("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for item in x:
            put(sep)
            _write(item, put, inner)
            sep = "," + inner
        put(newline + "]")
    else:
        raise TypeError(f"cannot write {kind.__name__} into a report")
