"""``report.to_json`` against ``json.dumps(indent=2, sort_keys=True)``."""

import json
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import indalg
from indalg.report import Check, to_json

# ASCII and beyond, controls that json escapes, lone surrogates, astral
# characters (written as surrogate pairs) and json's own escape characters
_CHARS = st.one_of(
    st.characters(min_codepoint=0, max_codepoint=0x10FFFF, exclude_categories=()),
    st.sampled_from(["\x00", "\x1f", "\x7f", "\ud800", "\udfff", "\u2028",
                     "\xe9", "\U0001f600", '"', "\\", "/", "\b", "\f", "\n", "\t"]),
)
_TEXT = st.text(_CHARS, max_size=8)
_LEAVES = st.one_of(
    st.none(), st.booleans(), _TEXT,
    st.integers(-10, 10), st.integers(-(2**200), 2**200),
)
_VALUES = st.recursive(
    _LEAVES,
    lambda kids: st.one_of(st.lists(kids, max_size=4),
                           st.dictionaries(_TEXT, kids, max_size=4)),
    max_leaves=30,
)


@settings(max_examples=300)
@given(_VALUES)
@example({})
@example([])
@example({"a": [], "b": {}, "c": [{}, [[]]], "": None})
@example([True, False, None, 0, -1, 2**64, -(2**64) - 1, 10**100])
@example({"\ud800": "\udfff\x00", "\xe9": ["\x1f", "\U0001f600"]})
def test_writer_is_json_dumps_with_indent_and_sorted_keys(value):
    assert to_json(value) == json.dumps(value, indent=2, sort_keys=True)


@pytest.mark.parametrize("value", [
    {1: "a"},  # json would write the key as "1"
    {"a": {1, 2}},
    [set()],
    {"a": (1, 2)},  # json would write a list
    [1.5],
    {None: 0},
    {"a": 1, 2: "b"},
])
def test_writer_refuses_what_a_report_does_not_hold(value):
    with pytest.raises(TypeError):
        to_json(value)


def test_check_is_its_four_fields_and_compares_by_them():
    check = Check("c", "finding", details={"n": 1})
    assert vars(check) == {"name": "c", "expected": "finding", "outcome": "pass",
                           "details": {"n": 1}}
    assert list(vars(check)) == ["name", "expected", "outcome", "details"]
    assert check == Check("c", "finding", "pass", details={"n": 1})
    assert check != Check("c", "finding", "fail", details={"n": 1})
    assert check != Check("c", "finding", details={"n": 2})
    assert check != vars(check)
    with pytest.raises(TypeError):  # mutable, so unhashable
        hash(check)
    sampled = Check.sampled("s")
    sampled.record(True)
    sampled.record(False, lambda: "w")
    assert vars(sampled) == {"name": "s", "expected": "pass", "outcome": "fail",
                             "details": {"samples": 2, "failures": ["w"], "failed": 1}}


_WITHOUT_C_ESCAPER = """\
import sys
sys.modules["_json"] = None  # as in an interpreter built without it
sys.path.insert(0, sys.argv[1])
import ast, json.encoder, indalg.report
assert indalg.report.encode_basestring_ascii is json.encoder.py_encode_basestring_ascii
sys.stdout.write(indalg.report.to_json(ast.literal_eval(sys.argv[2])))
"""


def test_writer_without_the_c_escaper_is_json_dumps():
    report = {
        "schema": 1, "command": "classify", "config": {}, "ok": False,
        "checks": [{"name": "caf\xe9 \u2028\U0001f600", "expected": "pass",
                    "outcome": "fail",
                    "details": {"terms": [{"term": 'nu("z1", x1)\\\x00\x1f\x7f\t\n',
                                           "error": "\ud800", "form": -(2**70)}],
                                "failures": [], "witness": {}, "nested": [[{}], [None]],
                                "": True}}],
    }
    proc = subprocess.run(
        [sys.executable, "-I", "-c", _WITHOUT_C_ESCAPER,
         str(Path(indalg.__file__).parent.parent), ascii(report)],
        capture_output=True, text=True, timeout=60, check=True)
    assert proc.stdout == json.dumps(report, indent=2, sort_keys=True)
