import json

import pytest
from report_json import canonical_report

from indalg import cli


def run(capsys, *argv):
    code = cli.run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, json.loads(out), err


def test_report_schema_and_determinism(capsys):
    argv = ("verify-counterexample", "--samples", "300", "--terms", "25")
    code1, out1, _ = run(capsys, *argv)
    code2, out2, _ = run(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2  # byte-identical across runs
    rep = json.loads(out1)
    assert rep["schema"] == 1
    assert rep["command"] == "verify-counterexample"
    assert rep["ok"] is True
    assert {"name", "expected", "outcome", "details"} <= set(rep["checks"][0])
    # canonical serialization: sorted keys, two-space indent, trailing newline
    assert canonical_report(out1) == rep


def test_verify_counterexample_checks(capsys):
    code, rep, _ = run_json(
        capsys, "verify-counterexample", "--samples", "200", "--terms", "30"
    )
    assert code == 0
    names = [c["name"] for c in rep["checks"]]
    assert names == [
        "pinned_g_values",
        "right_translation_homogeneity",
        "distributivity_refutations",
    ]
    assert all(c["outcome"] == c["expected"] == "pass" for c in rep["checks"])
    refs = rep["checks"][2]["details"]
    assert refs["refuted"] > 0
    assert refs["refuted"] + refs["constant_prefix"] == refs["terms"]
    assert refs["unrefuted"] == []


def test_a_refutation_check_that_tests_no_term_is_inconclusive(capsys):
    # every sampled term has a constant prefix, so no term is refutable
    code, rep, _ = run_json(capsys, "verify-counterexample", "--samples", "1",
                            "--terms", "5", "--depth", "3", "--seed", "7")
    check = rep["checks"][2]
    assert code == 1
    assert check["outcome"] == "inconclusive"
    assert check["details"] == {"terms": 5, "constant_prefix": 5, "refuted": 0,
                                "unrefuted": [], "varying_prefix": 0}


def test_classify_demo_terms(capsys):
    code, rep, _ = run_json(capsys, "classify")
    assert code == 0
    rows = rep["checks"][0]["details"]["terms"]
    assert len(rows) >= 3
    by_text = {r["term"]: r for r in rows}
    assert by_text["x1"]["form"] == 1
    assert by_text["g(x1, x2)"]["form"] == 2


def test_classify_parse_error_exit_code(monkeypatch, capsys):
    # parse errors must flip the outcome and the exit status
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO('{"terms": ["g(x1"]}'))
    code = cli.run(["classify", "--input", "-"])
    rep = json.loads(capsys.readouterr().out)
    assert code == 1
    assert rep["ok"] is False
    assert rep["checks"][0]["outcome"] == "fail"
    assert "error" in rep["checks"][0]["details"]["terms"][0]


def test_verify_depth_bound(capsys):
    # sampled terms grow exponentially in depth; past the bound is a usage error
    code, out, err = run(capsys, "verify-counterexample", "--depth", "13")
    assert code == 2
    assert out == ""
    assert "error:" in err
    assert "Traceback" not in err
    code, _, _ = run(capsys, "verify-counterexample", "--depth", "12",
                     "--terms", "5", "--samples", "1")
    assert code == 0


def test_verify_witness_budget_is_an_outcome(monkeypatch, capsys):
    # a witness search that runs out is an inconclusive check, not a traceback
    from indalg import counterexample as cx

    monkeypatch.setattr(cx, "SAMPLE_BUDGET", 0)
    code, out, err = run(capsys, "verify-counterexample", "--samples", "5",
                         "--terms", "6", "--depth", "3")
    assert code == 1
    assert err == ""
    rep = json.loads(out)
    assert rep["ok"] is False
    check = rep["checks"][2]
    assert check["name"] == "distributivity_refutations"
    assert check["outcome"] == "inconclusive"
    details = check["details"]
    assert details["witness_budget"] == 0
    assert details["refuted"] == 0 and details["unrefuted"] == []
    assert details["constant_prefix"] + details["inconclusive"] == details["terms"]
    assert 1 <= len(details["exhausted"]) <= 3
    assert [c["outcome"] for c in rep["checks"][:2]] == ["pass", "pass"]


def test_classify_nesting_bound(monkeypatch, capsys):
    # terms at the bound classify; deeper ones are error rows, not tracebacks
    import io

    from indalg import terms as tm

    def chain(head, n):
        return head * n + "x1" + ")" * n

    # the first has more parentheses than MAX_NESTING, so its nesting is scanned
    at_bound = [
        "g(nu(z1, x1), " + chain("g(x2, ", tm.MAX_NESTING - 1) + ")",
        chain("nu(z1, ", tm.MAX_NESTING),
    ]
    too_deep = [chain("g(x2, ", 600), chain("nu(z1, ", 3000)]
    payload = json.dumps({"terms": at_bound + too_deep})
    monkeypatch.setattr("sys.stdin", io.StringIO(payload))
    code = cli.run(["classify", "--input", "-"])
    captured = capsys.readouterr()
    rep = json.loads(captured.out)
    assert code == 1
    assert captured.err == ""
    rows = rep["checks"][0]["details"]["terms"]
    assert [r.get("form") for r in rows[:2]] == [2, 1]
    assert rows[1]["prefix"] == f"z1^{tm.MAX_NESTING}"
    for row in rows[2:]:
        assert row["error"] == f"term nested more than {tm.MAX_NESTING} deep"


def test_classify_prefixes_too_long_to_print_are_error_rows(monkeypatch, capsys):
    # each aligned g level encodes the last h-index into a ~2.5x longer one:
    # 18 levels passed the print limit (a traceback), 28 took 12 s
    import io
    import time

    def chain(levels):
        return "g(" * levels + "x1" + ", x1)" * levels

    big = "9" * 4300  # two exponents that print, whose sum does not
    texts = [chain(12), chain(18), chain(40), f"nu(z1^{big}, nu(z1^{big}, x1))"]
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps({"terms": texts})))
    start = time.perf_counter()
    code = cli.run(["classify", "--input", "-"])
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == ""
    rows = json.loads(captured.out)["checks"][0]["details"]["terms"]
    assert (rows[0]["form"], rows[0]["case"]) == (1, "g-aligned")
    for row in rows[1:3]:
        assert row["error"] == "an h-index in the prefix has more than 4300 digits"
    assert "4300 digits" in rows[3]["error"]


def test_classify_error_rows_keep_their_cause(monkeypatch, capsys):
    # a bad variable is a meta error, found only once the text has parsed
    import io

    texts = ["g(x0, x1", "x0", "g(x1, nu(z1, x0))", "nu(zz, x0", "nu(z1_0, x1)",
             "nu(z3 ^ 2, x1)", "nu(z\u0661, x1)"]
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps({"terms": texts})))
    code = cli.run(["classify", "--input", "-"])
    rows = json.loads(capsys.readouterr().out)["checks"][0]["details"]["terms"]
    assert code == 1
    assert [r["error"] for r in rows] == [
        "expected ')' closing g(...)",
        "variable index must be >= 1, got 0",
        "variable index must be >= 1, got 0",
        "expected ')' closing nu(...)",
        "bad syllable 'z1_0'",  # int() alone would read z10
        "bad syllable 'z3 ^ 2'",  # ... z3^2
        "bad syllable 'z\u0661'",  # ... z1
    ]


def test_classify_rows_are_those_of_one_term_payloads(monkeypatch, capsys):
    # the payload shares one coefficient table; one term a payload does not
    import io

    texts = ["g(nu(z3, x1), nu(z3 , x2))", "nu(z3 , nu(z3, x1))",
             "nu(z1_0, x1)", "g(x1, nu(z1*z2, x3))", "g(nu(z1_0, x2), x1)",
             "nu(z1*z2, g(x2, nu(z3, x1)))", "nu(z0, x2)", "g(nu(z0, x1), x1)"]

    def rows(terms):
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps({"terms": terms})))
        code = cli.run(["classify", "--input", "-"])
        return code, json.loads(capsys.readouterr().out)["checks"][0]["details"]["terms"]

    code, shared = rows(texts)
    singles = [rows([text]) for text in texts]
    assert code == max(c for c, _ in singles) == 1
    assert shared == [r for _, (r,) in singles]
    # a coefficient that fails is not stored, so it fails in every term
    assert [r.get("error") for r in shared] == [
        None, None, "bad syllable 'z1_0'", None, "bad syllable 'z1_0'", None,
        "generator index must be >= 1 in 'z0'", "generator index must be >= 1 in 'z0'"]


def test_term_table_is_bounded_by_a_report(monkeypatch, capsys):
    import gc
    import io

    from indalg import counterexample as cx
    from indalg import terms as tm

    assert not hasattr(tm.meta, "cache_info")
    gc.collect()
    before = len(tm._NODES)
    peak = [before]
    classify = cx.classify

    def watched(t, h):
        peak[0] = max(peak[0], len(tm._NODES))
        return classify(t, h)

    monkeypatch.setattr(cx, "classify", watched)
    texts = ["g(nu(z3, x1), g(x2, nu(z1*z2, x1)))", "nu(z2, g(x1, x3))", "x7"]
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps({"terms": texts})))
    assert cli.run(["classify", "--input", "-"]) == 0
    assert cli.run(["verify-counterexample", "--samples", "20", "--terms", "30",
                    "--depth", "5", "--seed", "3"]) == 0
    capsys.readouterr()
    assert peak[0] > before + 30  # the reports did build terms
    gc.collect()
    assert len(tm._NODES) == before


def test_catalog_exchange_semilattice_is_expected_finding(capsys):
    code, rep, _ = run_json(capsys, "catalog", "--check", "exchange")
    assert code == 0
    finding = [c for c in rep["checks"] if c["expected"] == "finding"]
    assert len(finding) == 1
    assert "semilattice" in finding[0]["name"]
    assert finding[0]["outcome"] == "finding"
    assert finding[0]["details"]["witness"] == {"X": [0], "y": 2, "z": 1}


def test_catalog_witness_plus_variant(capsys):
    code, rep, _ = run_json(
        capsys,
        "catalog",
        "--kind",
        "linear",
        "--params",
        '{"q": 3, "dim": 1, "a0": [[1]]}',
        "--check",
        "witness",
        "--variant",
        "plus",
    )
    assert code == 0
    (check,) = rep["checks"]
    assert check["expected"] == "finding"
    assert check["outcome"] == "finding"
    assert {
        "a": [1, 2, 0],
        "op": "f(1,1)+0",
        "args": [0, 0],
        "lhs": 1,
        "rhs": 2,
    } in check["details"]["violations"]


# t = l x + a distributes over x + y when a = 0, so with A0 = {0} the plus
# witness passes and the report expects it to
@pytest.mark.parametrize("a0", [[], [[0]]])
def test_catalog_witness_plus_variant_without_shifts_passes(capsys, a0):
    params = json.dumps({"q": 3, "dim": 1, "a0": a0})
    code, rep, _ = run_json(capsys, "catalog", "--kind", "linear", "--params", params,
                            "--check", "witness", "--variant", "plus")
    assert code == 0
    (check,) = rep["checks"]
    assert check["expected"] == check["outcome"] == "pass"


def test_catalog_too_large_is_usage_error(capsys):
    code, out, err = run(
        capsys, "catalog", "--kind", "linear", "--params", '{"q": 5, "dim": 2}',
        "--check", "exchange",
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: carrier size 25 exceeds")


def test_catalog_larger_instances_run(capsys):
    code, rep, _ = run_json(
        capsys, "catalog", "--kind", "group_action", "--params",
        '{"size": 8, "generators": [[1, 2, 3, 4, 5, 6, 7, 0]], "constants": [0]}',
        "--check", "endos",
    )
    assert code == 0
    assert rep["checks"][0]["details"]["count"] == 1
    code, rep, _ = run_json(
        capsys, "catalog", "--kind", "linear", "--params",
        '{"q": 5, "dim": 1, "a0": [[1]]}', "--check", "witness",
    )
    assert code == 0
    assert rep["checks"][0]["outcome"] == "pass"

def test_greens_dual_routes_both_backends(capsys):
    for backend in ("matrix", "act"):
        for side in ("R", "L", "Rstar", "Lstar"):
            code, rep, _ = run_json(
                capsys, "greens", "--backend", backend, "--side", side
            )
            assert code == 0, (backend, side, rep)
            (check,) = rep["checks"]
            assert check["details"]["side"] == side
            assert check["details"]["routes_agree"] is True
            assert isinstance(check["details"]["leq"], bool)


def test_greens_payload_pair(tmp_path, capsys):
    payload = tmp_path / "pair.json"
    payload.write_text(
        json.dumps({"a": [["1/2", "0"], ["0", "0"]], "b": [[1, 0], [0, 1]]})
    )
    code, rep, _ = run_json(
        capsys, "greens", "--backend", "matrix", "--side", "R",
        "--input", str(payload),
    )
    assert code == 0
    (check,) = rep["checks"]
    assert check["details"]["leq"] is True  # the identity divides everything
    assert check["details"]["a"] == [["1/2", "0"], ["0", "0"]]


def test_decompose_matrix_modes(capsys):
    for mode in ("left", "right", "straight"):
        code, rep, _ = run_json(
            capsys, "decompose", "--backend", "matrix", "--mode", mode
        )
        assert code == 0, (mode, rep)
        (check,) = rep["checks"]
        assert check["outcome"] == "pass"
        assert check["details"]["mode"] == mode
        assert {"alpha", "a", "b"} <= set(check["details"])
        if mode == "straight":
            assert all(check["details"]["certificates"].values())


def test_decompose_act_left(capsys):
    code, rep, _ = run_json(
        capsys, "decompose", "--backend", "act", "--mode", "left"
    )
    assert code == 0
    (check,) = rep["checks"]
    assert check["outcome"] == "pass"
    assert check["details"]["a"]["flavor"] == "B"
    assert check["details"]["b"]["flavor"] == "B"


def test_decompose_act_payload(tmp_path, capsys):
    payload = tmp_path / "alpha.json"
    payload.write_text(
        json.dumps({"alpha": {"flavor": "A", "shifts": [-2, 0], "targets": [1, 2]}})
    )
    code, rep, _ = run_json(
        capsys, "decompose", "--backend", "act", "--mode", "left",
        "--input", str(payload),
    )
    assert code == 0
    (check,) = rep["checks"]
    assert check["details"]["a"]["shifts"] == [2, 2]
    assert check["details"]["b"]["shifts"] == [0, 2]


def test_decompose_act_rejects_other_modes(capsys):
    code, out, err = run(capsys, "decompose", "--backend", "act", "--mode", "right")
    assert code == 2
    assert "usage" in err.lower() or err  # message lands on stderr


def test_quotient_eq_and_embed(capsys):
    for backend in ("matrix", "act"):
        for action in ("eq", "embed"):
            code, rep, _ = run_json(capsys, "quotient", action, "--backend", backend)
            assert code == 0, (backend, action, rep)


def test_ore_check_posint_and_free2(capsys):
    code, rep, _ = run_json(capsys, "ore-check", "--monoid", "posint", "--depth", "3")
    assert code == 0
    assert all(c["outcome"] == "pass" for c in rep["checks"])

    code, rep, _ = run_json(capsys, "ore-check", "--monoid", "free2", "--depth", "3")
    assert code == 0
    for check in rep["checks"]:
        assert check["expected"] == "finding"
        assert check["outcome"] == "finding"
        assert "certificate" in check["details"]["witness"]


def test_suite_command(capsys):
    code, rep, _ = run_json(capsys, "suite", "--backend", "act", "--samples", "30")
    assert code == 0
    assert len(rep["checks"]) == 11
    assert all(c["outcome"] == "pass" for c in rep["checks"])


def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code = cli.run(["quotient", "embed", "--out", str(target)])
    out = capsys.readouterr().out
    assert code == 0
    assert out == ""
    rep = json.loads(target.read_text())
    assert rep["command"] == "quotient"


def test_text_format(capsys):
    code, out, _ = run(capsys, "catalog", "--check", "exchange", "--format", "text")
    assert code == 0
    lines = [l for l in out.splitlines() if l]
    assert lines[0] == "indalg catalog  (schema 1)"
    assert all(l.startswith("[PASS]") for l in lines[1:-1])
    assert lines[-1] == "ok"
    # an expected finding passes
    assert any("semilattice" in l and "outcome=finding expected=finding" in l
               for l in lines)


# how the interpreter refuses to print an integer of more than 4300 digits
TOO_LONG = "Exceeds the limit (4300 digits) for integer string conversion"
RAISE_IT = "use sys.set_int_max_str_digits() to increase the limit"
LONGEST = 10**4300 - 1  # the longest integer a report may print

# (argv, stdin[, the message after "error: "]): the message is pinned for the
# orders subcommands
USAGE_ERRORS = [
    # argv the flag table refuses: an unknown flag, an ambiguous prefix, a
    # bad int, a bad choice, a flag without its value (also before another
    # flag), no subcommand or an unknown one, quotient without its action,
    # and a positional too many
    (["suite", "--bogus", "1"], None, "unrecognized arguments: --bogus 1"),
    (["suite", "--s", "1"], None,
     "ambiguous option: --s could match --seed, --samples"),
    (["suite", "--n", "x"], None, "argument --n: invalid int value: 'x'"),
    (["greens", "--side", "Q"], None,
     "argument --side: invalid choice: 'Q' (choose from 'R', 'L', 'Rstar', 'Lstar')"),
    (["classify", "--format", "xml"], None),
    (["suite", "--seed"], None, "argument --seed: expected one argument"),
    (["suite", "--out", "--format", "text"], None,
     "argument --out: expected one argument"),
    ([], None),
    (["no-such-command"], None),
    (["ci-check"], None),
    (["quotient", "--backend", "act"], None,
     "the following arguments are required: action"),
    (["suite", "extra"], None, "unrecognized arguments: extra"),
    (["quotient", "eq", "embed"], None, "unrecognized arguments: embed"),
    (["classify", "--input", "/nonexistent/file.json"], None),
    (["classify", "--input", "-"], '["x1"]'),
    (["classify", "--input", "-"], '{"terms": ["x1", 7]}'),
    (["classify", "--input", "-"], '{"terms": []}'),
    (["suite", "--samples", "-5"], None, "--samples must be at least 1"),
    (["suite", "--backend", "matrix", "--n", "9"], None,
     "--n must be in 1..4 for the matrix suite"),
    (["suite", "--backend", "act", "--n", "0"], None,
     "--n must be in 1..3 for the act suite"),
    (["verify-counterexample", "--terms", "0"], None),
    (["verify-counterexample", "--samples", "0"], None),
    (["verify-counterexample", "--depth", "1", "--terms", "10"], None),
    (["ore-check", "--depth", "0"], None, "--depth must be at least 1"),
    # ore-check depths whose element count is over the cap
    (["ore-check", "--depth", "100000000000000000000"], None,
     "--depth: depth 100000000000000000000 gives posint more than 256 elements"),
    (["ore-check", "--monoid", "free2", "--depth", "8"], None,
     "--depth: depth 8 gives free2 more than 256 elements"),
    (["catalog", "--kind", "linear", "--params", '{"q":"x"}'], None),
    # a witness variant that the kind does not have
    (["catalog", "--kind", "rank0", "--check", "witness", "--variant", "plus"], None),
    (["catalog", "--check", "witness", "--variant", "plus"], None),
    (["catalog", "--kind", "linear", "--check", "witness", "--variant", "bogus"],
     None),
    # a flag the subcommand does not read, given as a shared flag, a prefix
    # of one, or with '='
    (["catalog", "--depth", "99", "--samples", "7"], None),
    (["catalog", "--seed", "1"], None),
    (["catalog", "--check", "witness", "--n=5"], None),
    (["catalog", "--input", "-"], "{}"),
    (["classify", "--seed", "3"], None),
    (["classify", "--sam", "3"], None),
    (["verify-counterexample", "--n", "2"], None),
    (["verify-counterexample", "--input", "-"], "{}"),
    (["decompose", "--samples", "5"], None, "unrecognized arguments: --samples 5"),
    (["greens", "--depth", "2"], None, "unrecognized arguments: --depth 2"),
    (["quotient", "eq", "--seed", "1"], None, "unrecognized arguments: --seed 1"),
    # ... also before a positional, which the flag's value is not
    (["quotient", "--seed", "0", "embed"], None, "unrecognized arguments: --seed 0"),
    (["--seed", "0", "quotient", "embed"], None, "unrecognized arguments: --seed 0"),
    (["quotient", "--bogus", "1", "eq"], None, "unrecognized arguments: --bogus 1"),
    (["quotient", "--bogus", "eq"], None, "unrecognized arguments: --bogus"),
    (["ore-check", "--samples", "5"], None, "unrecognized arguments: --samples 5"),
    (["ore-check", "--n", "2"], None, "unrecognized arguments: --n 2"),
    (["suite", "--depth", "3"], None, "unrecognized arguments: --depth 3"),
    (["suite", "--input", "-"], "{}", "unrecognized arguments: --input -"),
    # a flag the request would ignore: parameters for the default catalog, a
    # witness variant for another check
    (["catalog", "--params", '{"q": 99}', "--check", "clone"], None),
    (["catalog", "--params", "{}"], None),
    (["catalog", "--check", "exchange", "--variant", "standard"], None),
    (["catalog", "--kind", "linear", "--check", "endos", "--variant", "plus"], None),
    # catalog integer parameters: a float, boolean or string is not truncated
    (["catalog", "--kind", "rank0", "--params", '{"size":3.9}', "--check", "endos"],
     None),
    (["catalog", "--kind", "rank0", "--params", '{"size":"3"}'], None),
    (["catalog", "--kind", "linear", "--params", '{"q":3.0,"dim":1.7}'], None),
    (["catalog", "--kind", "affine", "--params", '{"q":3,"dim":true}'], None),
    (["catalog", "--kind", "linear", "--params", '{"q":3,"dim":1,"a0":[[1.0]]}'],
     None),
    (["catalog", "--kind", "q_homog_field", "--params", '{"q":5.0}'], None),
    (["catalog", "--kind", "group_action", "--params",
      '{"size":5,"generators":[[0,1,2,3,4]],"constants":[true,3]}'], None),
    (["catalog", "--kind", "group_action", "--params",
      '{"size":3,"generators":[[0,2,true]],"constants":[0]}'], None),
    (["catalog", "--kind", "group_action", "--params",
      '{"size":5.0,"generators":[[0,1,2,3,4]],"constants":[0]}'], None),
    # 8^7 generator assignments, over the endomorphism search's cap
    (["catalog", "--kind", "group_action", "--params",
      '{"size":8,"generators":[[0,1,2,3,4,5,6,7]],"constants":[0]}',
      "--check", "endos"], None),
    # quotient eq: vectors of different lengths, a zero tag, a missing element
    (["quotient", "eq", "--input", "-"],
     '{"p": {"t": 1, "v": [1, 2]}, "q": {"t": 1, "v": [1, 2, 3]}}',
     "quotient payload: vector lengths differ: 2 and 3"),
    (["quotient", "eq", "--input", "-"],
     '{"p": {"t": 0, "v": [1, 2]}, "q": {"t": 1, "v": [1, 2]}}',
     "quotient payload: denominator tag must be positive"),
    (["quotient", "eq", "--input", "-"], '{"p": {"t": 1, "v": [1, 2]}}',
     "quotient payload: missing key 'q'"),
    (["quotient", "eq", "--backend", "act", "--input", "-"],
     '{"q": {"k": 0, "m": 1, "i": 1}}', "quotient payload: missing key 'p'"),
    # act generator indices are 1-based: an index below 1 names no generator
    (["quotient", "eq", "--backend", "act", "--input", "-"],
     '{"p": {"k": 0, "m": 0, "i": 0}, "q": {"k": 0, "m": 0, "i": -5}}',
     "quotient payload: generator index must be at least 1"),
    (["quotient", "embed", "--backend", "act", "--input", "-"], '{"m": 0, "i": 0}',
     "quotient payload: generator index must be at least 1"),
    # matrix shapes and entries
    (["greens", "--side", "R", "--input", "-"],
     '{"a": [[1, 0], [0, 1]], "b": [[1]]}', "matrix sizes differ: 2 and 1"),
    (["greens", "--side", "R", "--input", "-"], '{"a": [[1, 0], [0, 1]]}',
     "greens payload: missing key 'b'"),
    (["greens", "--side", "L", "--input", "-"],
     '{"a": [["x", 0], [0, 1]], "b": [[1, 0], [0, 1]]}',
     "bad matrix entry: Invalid literal for Fraction: 'x'"),
    (["greens", "--side", "L", "--input", "-"],
     '{"a": [[0.5, 0], [0, 1]], "b": [[1, 0], [0, 1]]}',
     "matrix entries must be integers or exact strings like '1/2'"),
    (["greens", "--side", "Rstar", "--input", "-"],
     '{"a": [["1/2", 0], [0, 1]], "b": [[1, 0], [0, 1]]}',
     "greens payload: non-integer entry 1/2"),
    (["greens", "--side", "Lstar", "--input", "-"],
     '{"a": [[1, 0], [0, 1]], "b": [["4/2", "-6/8"], [0, "1/3"]]}',
     "greens payload: non-integer entry -3/4"),
    (["decompose", "--mode", "straight", "--input", "-"],
     '{"alpha": [[1, 2, 3], [4, 5, 6]]}',
     "a matrix must be a non-empty square list of rows"),
    (["decompose", "--input", "-"], '{"alpha": []}',
     "a matrix must be a non-empty square list of rows"),
    # entries too long to print: refused from the exponent before they are
    # built, as a JSON integer, or when a result entry grows past the limit
    (["greens", "--backend", "matrix", "--input", "-"],
     '{"a": [["1e5000", 0], [0, 1]], "b": [[1, 0], [0, 1]]}',
     "bad matrix entry: '1e5000' has more than 4300 digits"),
    (["greens", "--backend", "matrix", "--input", "-"],
     '{"a": [["1e999999999", 0], [0, 1]], "b": [[1, 0], [0, 1]]}',
     "bad matrix entry: '1e999999999' has more than 4300 digits"),
    (["greens", "--side", "L", "--input", "-"],
     '{"a": [["-2.5E-4400", 0], [0, 1]], "b": [[1, 0], [0, 1]]}',
     "bad matrix entry: '-2.5E-4400' has more than 4300 digits"),
    (["decompose", "--mode", "left", "--input", "-"],
     '{"alpha": [["1e5000", 0], [0, 1]]}',
     "bad matrix entry: '1e5000' has more than 4300 digits"),
    (["greens", "--input", "-"],
     '{"a": [[1' + "0" * 5000 + ', 0], [0, 1]], "b": [[1, 0], [0, 1]]}',
     f"cannot read input: {TOO_LONG}: value has 5001 digits; {RAISE_IT}"),
    (["decompose", "--mode", "left", "--input", "-"],
     '{"alpha": [["1e2500", 0], [0, "1e-2000"]]}',
     f"decomposition: {TOO_LONG}; {RAISE_IT}"),
    (["greens", "--backend", "act", "--input", "-"],
     '{"a": {"shifts": [0], "targets": [1]}, '
     '"b": {"shifts": [0, 0], "targets": [1, 2]}}',
     "act endomorphism ranks differ: 1 and 2"),
    (["greens", "--backend", "act", "--input", "-"],
     '{"a": {"shifts": [0], "targets": [1]}}', "greens payload: missing key 'b'"),
    # integer fields: a float or a boolean is not an integer
    (["quotient", "eq", "--input", "-"],
     '{"p": {"t": 1, "v": [1.5, 3]}, "q": {"t": 1, "v": [1, 3]}}',
     "v must be an integer, not 1.5"),
    (["quotient", "eq", "--input", "-"],
     '{"p": {"t": 1.0, "v": [1, 3]}, "q": {"t": 1, "v": [1, 3]}}',
     "t must be an integer, not 1.0"),
    (["quotient", "eq", "--backend", "act", "--input", "-"],
     '{"p": {"k": 0, "m": 1.5, "i": 1}, "q": {"k": 0, "m": 1, "i": 1}}',
     "m must be an integer, not 1.5"),
    (["decompose", "--backend", "act", "--input", "-"],
     '{"alpha": {"shifts": [0.7, 0], "targets": [1, 2]}}',
     "shifts must be an integer, not 0.7"),
    (["decompose", "--backend", "act", "--input", "-"],
     '{"alpha": {"shifts": [0, 0], "targets": [1, true]}}',
     "targets must be an integer, not true"),
    (["quotient", "embed", "--backend", "act", "--input", "-"], '{"m": 2.5}',
     "m must be an integer, not 2.5"),
    (["quotient", "embed", "--input", "-"], '{"v": [1, false]}',
     "v must be an integer, not false"),
    (["greens", "--side", "R", "--input", "-"],
     '{"a": [[true, 0], [0, 1]], "b": [[1, 0], [0, 1]]}',
     "matrix entries must be integers or exact strings like '1/2'"),
    # act results that double the longest integer a report may print: a
    # shift of alpha's decomposition, a quotient's exponent
    (["decompose", "--backend", "act", "--input", "-"], json.dumps(
        {"alpha": {"flavor": "A", "shifts": [-LONGEST, LONGEST], "targets": [1, 2]}}),
     f"cannot write the report: {TOO_LONG}; {RAISE_IT}"),
    (["quotient", "eq", "--backend", "act", "--input", "-"], json.dumps(
        {"p": {"k": LONGEST, "m": -LONGEST, "i": 1}, "q": {"k": 0, "m": 0, "i": 1}}),
     f"cannot write the report: {TOO_LONG}; {RAISE_IT}"),
    # an unwritable report path
    (["quotient", "embed", "--out", "/nonexistent/dir/x.json"], None,
     "cannot write --out: [Errno 2] No such file or directory: "
     "'/nonexistent/dir/x.json'"),
]


def test_usage_errors_exit_2(capsys, monkeypatch):
    import io

    for argv, stdin, *message in USAGE_ERRORS:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin or ""))
        code, out, err = run(capsys, *argv)
        assert code == 2, (argv, stdin)
        assert out == ""
        assert err.startswith("error: "), (argv, stdin)
        assert "Traceback" not in err
        if message:
            assert err == f"error: {message[0]}\n", (argv, stdin)


@pytest.mark.parametrize("command", [None, *cli.build_parser()])
def test_help_lists_the_subcommands_or_every_flag(capsys, command):
    table = cli.build_parser()
    if command is None:
        argv, wanted = [], list(table)
    else:
        options, defaults, positional = table[command]
        argv, wanted = [command], list(positional[2]) if positional else []
        for option, (dest, _, choices, _) in options.items():
            wanted += [option, *(choices or ())]
            if defaults.get(dest) is not None:
                wanted.append(f"default: {defaults[dest]}")
    for flag in ("-h", "--help"):
        code, out, err = run(capsys, *argv, flag)
        assert (code, err) == (0, ""), flag
        assert [w for w in wanted if w not in out] == [], flag
        if command is not None:  # and no flag the subcommand does not read
            listed = {line.split()[0] for line in out.splitlines()
                      if line.startswith("  --")}
            assert listed == set(options) - {"-h", "--help"}, flag


def test_a_result_too_long_to_print_is_refused_only_in_json(capsys, monkeypatch):
    import io

    payload = json.dumps({"alpha": {"flavor": "A", "shifts": [-LONGEST, LONGEST],
                                    "targets": [1, 2]}})
    monkeypatch.setattr("sys.stdin", io.StringIO(payload))
    code, out, err = run(capsys, "decompose", "--backend", "act", "--input", "-",
                         "--format", "text")
    assert (code, err) == (0, "")  # the text report prints no details
    assert out.splitlines()[-1] == "ok"


# the names each orders backend defines, so that a handler reaches either
# backend through one lookup
SURFACE = ("MODES", "decompose", "verify_decomposition", "greens_leq", "quot",
           "embed", "quotient_eq", "show")


def test_orders_backends_share_one_surface(capsys):
    import importlib

    for name, row in cli._ORDERS.items():
        backend = importlib.import_module(row.module)
        assert [n for n in SURFACE if not hasattr(backend, n)] == [], name
        (alpha,) = row.read([row.demo["alpha"]])
        for mode in backend.MODES:
            dec = backend.decompose(alpha, mode)
            # one shape on both backends: a plain (a, b) pair
            assert type(dec) is tuple and len(dec) == 2, (name, mode)
            assert backend.verify_decomposition(alpha, dec, mode), (name, mode)
    for mode in ("right", "straight"):
        code, out, err = run(capsys, "decompose", "--backend", "act", "--mode", mode)
        assert (code, out, err) == (
            2, "", "error: the act backend provides only --mode left\n")


def test_integer_fields_name_the_value_they_refuse(capsys, monkeypatch):
    import io

    for text, shown in [("1.5", "1.5"), ("true", "true"), ('"2"', '"2"')]:
        monkeypatch.setattr("sys.stdin", io.StringIO(f'{{"m": {text}, "i": 1}}'))
        code, out, err = run(capsys, "quotient", "embed", "--backend", "act",
                             "--input", "-")
        assert (code, out, err) == (2, "", f"error: m must be an integer, not {shown}\n")


def test_catalog_params_of_the_wrong_shape_name_the_field(capsys):
    cases = [(kind, text, f"--params: {field} must be a list")
             for kind, text, field in [
                 ("linear", '{"q":3,"a0":5}', "a0"),
                 ("affine", '{"q":3,"a0":[5]}', "a0 entry"),
                 ("linear", '{"q":3,"a0":null}', "a0"),
                 ("group_action", '{"size":5,"generators":5}', "generators"),
                 ("group_action", '{"size":5,"generators":[5]}', "generators entry"),
                 ("group_action", '{"size":5,"constants":5}', "constants")]]
    cases += [("linear", text, "--params must be a JSON object")
              for text in ("[1]", "5", '"x"', "null")]
    for kind, text, message in cases:
        code, out, err = run(capsys, "catalog", "--kind", kind, "--params", text)
        assert code == 2, text
        assert out == ""
        assert f"error: {message}" in err, text
        assert "Traceback" not in err


def test_matrix_entries_up_to_the_digit_limit_are_read(capsys, monkeypatch):
    import io

    # 10^4299 has 4300 digits, the most a report may print
    monkeypatch.setattr("sys.stdin", io.StringIO(
        '{"a": [["1e4299", 0], [0, 1]], "b": [[1, 0], [0, 1]]}'))
    code, rep, _ = run_json(capsys, "greens", "--side", "L", "--input", "-")
    assert code == 0
    assert rep["checks"][0]["details"]["a"][0][0] == "1" + "0" * 4299
