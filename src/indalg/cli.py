"""Command-line interface.

Each subcommand runs a batch of checks (``indalg.report.Check``) and emits
a deterministic report: identical configurations produce byte-identical
JSON.  A check carries an ``expected`` field ("pass" or "finding") so that
mathematically expected failures -- the semilattice control breaking
exchange, the free monoid breaking the Ore condition -- are distinguished
from genuine errors.  The exit status is 0 when every outcome matches its
expectation, 1 otherwise, 2 on usage errors: a bad flag value or a
malformed payload.  A search refused up front for its size is a usage
error; one that runs out of a budget partway ends its check
``inconclusive``, naming the counter and its cap.

Importing this module loads of the package only ``report``, and neither
``json`` nor any backend.  Each handler reaches its own backend through
``_backend`` before any work: words, terms and counterexample for
``classify`` and ``verify-counterexample``, the catalog for ``catalog``,
and the part of ``orders`` its backend needs (``monoids`` alone, without
``fractions``, for ``ore-check``).  ``_backend`` imports a module on its
first use and reads it from ``sys.modules`` after that, since an import
statement of a loaded module still costs about a microsecond (a relative
one runs ``ModuleSpec.parent`` and ``_handle_fromlist`` in Python).  One
process per report then pays only for what that report runs.  No import
sits on a path taken once per matrix entry, sample or term:
``_parse_qmats`` imports ``fractions`` once a payload and reads all of
its matrices, and ``_parse_act`` is handed its constructor by the handler.

``json`` is imported only where JSON is read: by ``_load_payload`` for an
``--input`` payload, by ``catalog`` for ``--params``, and by ``_int`` to
show a value it refuses.  The report is written by ``report.to_json``: the
bytes of ``json.dumps(report, indent=2, sort_keys=True)``, with ``_json``'s
string escaper alone, and a TypeError for any value but a str, int, bool,
None, list or dict with str keys.  ``classify`` parses its payload with
one coefficient table (text -> word) for all its terms, so each distinct
``nu`` coefficient text is parsed once a report.

``run`` reads argv of one plain shape, a subcommand followed by exact
``--flag value`` pairs, from a table derived once per process from the
parser (``_flag_table``), so every flag is still declared only in
``build_parser``.  Any other argv goes to ``parse_args``: an abbreviated or
unknown flag, ``--flag=value``, ``-h``, ``--``, a flag without its value, a
value starting with ``-`` that is neither ``-`` nor a negative number, a
value its type or choices refuse, and the ``quotient`` subcommand, which
takes a positional.  argparse alone writes help, usage and error text, and
alone reads abbreviations and ``=``; both paths give the same namespace.
"""

from __future__ import annotations

import argparse
import functools
import sys
from contextlib import contextmanager

from .report import Check, fmt_mat, max_digits, to_json


class UsageError(Exception):
    pass


# --- input parsing -----------------------------------------------------------


@contextmanager
def _reading(what: str):
    """Turn a malformed payload or parameter met inside the block into a
    usage error."""
    try:
        yield
    except KeyError as exc:
        raise UsageError(f"{what}: missing key {exc}") from exc
    except (AttributeError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"{what}: {exc}") from exc


def _at_least_one(args, *flags) -> None:
    for flag in flags:
        if getattr(args, flag) < 1:
            raise UsageError(f"--{flag} must be at least 1")


def _load_payload(args) -> dict | None:
    if not getattr(args, "input", None):
        return None
    import json

    try:
        if args.input == "-":
            payload = json.load(sys.stdin)
        else:
            with open(args.input, encoding="utf-8") as fh:
                payload = json.load(fh)
    except (OSError, ValueError) as exc:  # also an integer too long to read
        raise UsageError(f"cannot read input: {exc}") from exc
    if not isinstance(payload, dict):
        raise UsageError("input must be a JSON object")
    return payload


def _exact(x):
    """x, an integer or an exact string, unless it is an e-notation string
    whose value could have more digits than a report may print: that is
    refused before the value is built."""
    if isinstance(x, str):
        mantissa, e, exponent = x.lower().partition("e")
        if e and len(mantissa) + abs(int(exponent)) > max_digits():
            raise ValueError(f"{x[:20]!r} has more than {max_digits()} digits")
    return x


def _parse_qmats(matrices) -> list:
    """Square rational matrices of one size, one from each item of
    matrices: rows of integers and exact strings like '1/2'.  The items are
    read in turn, so an error in one is met before the next is looked up."""
    from fractions import Fraction  # once a payload, never once an entry

    out = []
    for rows in matrices:
        if not (isinstance(rows, list) and rows
                and all(isinstance(r, list) and len(r) == len(rows) for r in rows)):
            raise UsageError("a matrix must be a non-empty square list of rows")
        if out and len(rows) != len(out[0]):
            raise UsageError(f"matrix sizes differ: {len(out[0])} and {len(rows)}")
        if any(type(x) not in (int, str) for row in rows for x in row):
            raise UsageError("matrix entries must be integers or exact strings "
                             "like '1/2'")
        with _reading("bad matrix entry"):
            out.append(tuple(tuple(map(Fraction, map(_exact, row))) for row in rows))
    return out


def _int(x, what: str) -> int:
    """An integer payload field: a JSON integer, never a float or a boolean."""
    if type(x) is not int:
        import json

        raise UsageError(f"{what} must be an integer, not {json.dumps(x)}")
    return x


def _ints(xs, what: str) -> list[int]:
    if not isinstance(xs, list):
        raise UsageError(f"{what} must be a list of integers")
    return [_int(x, what) for x in xs]


def _parse_act(d, act_endo):
    """An act endomorphism, built by the handler's ``acts.act_endo``."""
    with _reading("bad act endomorphism"):
        return act_endo(d.get("flavor", "B"), _ints(d["shifts"], "shifts"),
                        _ints(d["targets"], "targets"))


# --- subcommand handlers ------------------------------------------------------


def _backend(name: str):
    """The module called name, imported on its first use in the process and
    read from ``sys.modules`` after that: a dict lookup, where an import
    statement of a loaded module still runs the import machinery."""
    try:
        return sys.modules[name]
    except KeyError:
        __import__(name)
        return sys.modules[name]


def cmd_verify_counterexample(args):
    cx = _backend("indalg.counterexample")
    tm = _backend("indalg.terms")
    wd = _backend("indalg.words")

    _at_least_one(args, "samples", "terms", "depth")
    h = cx.HMap()
    z = wd.gen
    pinned = [
        ((z(1), z(2)), wd.mul(z(6), z(2))),
        ((z(3), z(2)), wd.mul(z(8), z(2))),
        ((z(1), z(4)), wd.mul(z(10), z(4))),
    ]
    rows = []
    all_ok = True
    for (w1, w2), want in pinned:
        got = h.g(w1, w2)
        rows.append({
            "w1": wd.format_word(w1), "w2": wd.format_word(w2),
            "value": wd.format_word(got), "expected": wd.format_word(want),
        })
        all_ok = all_ok and got == want
    checks = [Check("pinned_g_values", outcome="pass" if all_ok else "fail",
                    details={"values": rows})]

    checks.append(cx.check_homogeneity(h, args.samples, seed=args.seed))

    pool = [z(1), z(2), z(3), wd.mul(z(1), z(2)), wd.mul(z(3), z(1))]
    with _reading("--depth/--terms"):
        corpus = tm.sample_terms(
            max_depth=args.depth, max_var=3, coeff_pool=pool,
            seed=args.seed, count=args.terms,
        )
    unrefuted = []
    exhausted = []  # terms whose witness search ran out of budget
    refuted = 0
    constant = 0
    for t in corpus:
        form = cx.classify(t, h)
        if form.form == 1:
            constant += 1
            continue
        try:
            ref = cx.refute_distributivity(t, h, form)
        except cx.WitnessExhausted:
            exhausted.append(tm.format_term(t))
            continue
        if ref.holds:
            refuted += 1
        else:
            unrefuted.append(tm.format_term(t))
    details = {"terms": len(corpus), "constant_prefix": constant,
               "refuted": refuted, "unrefuted": unrefuted[:3]}
    if exhausted:
        details.update(inconclusive=len(exhausted), exhausted=exhausted[:3],
                       witness_budget=cx.SAMPLE_BUDGET)
    if constant == len(corpus):  # every term has a constant prefix: none was tested
        details["varying_prefix"] = 0
    checks.append(Check("distributivity_refutations", details=details, outcome=(
        "fail" if unrefuted else "inconclusive" if exhausted or not refuted
        else "pass")))
    return checks


_DEMO_TERMS = [
    "x1",
    "nu(z3, x1)",
    "g(x1, x2)",
    "g(nu(z3, x1), x1)",
    "g(nu(z1, x1), nu(z2, x2))",
]


def cmd_classify(args):
    cx = _backend("indalg.counterexample")
    tm = _backend("indalg.terms")
    wd = _backend("indalg.words")

    payload = _load_payload(args) or {}
    texts = payload.get("terms", _DEMO_TERMS)
    if not (isinstance(texts, list) and texts
            and all(isinstance(t, str) for t in texts)):
        raise UsageError("'terms' must be a non-empty list of strings")
    h = cx.HMap()
    coeffs = {}  # coefficient text -> word, shared by every term of the payload
    rows = []
    outcome = "pass"
    for text in texts:
        try:
            t = tm.parse_term(text, coeffs)
            form = cx.classify(t, h)
            row = {"term": text, "form": form.form, "case": form.case,
                   "arity": form.arity, "star": form.star}
            if form.form == 1:  # a summed exponent may be too long to print
                row["prefix"] = wd.format_word(form.prefix)
        except (ValueError, tm.ArityError) as exc:
            row = {"term": text, "error": str(exc)}
            outcome = "fail"
        rows.append(row)
    return [Check("classification", outcome=outcome, details={"terms": rows})]


def _instance_label(alg) -> str:
    return f"{alg.kind}(size={alg.size})"


def cmd_catalog(args):
    cat = _backend("indalg.catalog")

    if args.variant is not None and args.check != "witness":
        raise UsageError("--variant applies to --check witness only")
    if args.kind == "all":
        if args.params is not None:
            raise UsageError("--params needs --kind: the default catalog takes none")
        instances = cat.default_catalog() + [cat.make_instance("semilattice")]
    else:
        with _reading("--params"):
            params = {}
            if args.params:
                import json

                params = json.loads(args.params)
            if not isinstance(params, dict):
                raise UsageError("--params must be a JSON object")
            instances = [cat.make_instance(args.kind, **params)]
    checks = []
    try:
        for alg in instances:
            label = _instance_label(alg)
            if args.check == "exchange":
                expected = "finding" if alg.kind == "semilattice" else "pass"
                res = cat.check_exchange(alg)
                outcome = "pass" if res.holds else "finding"
                details = {"instance": label, "holds": res.holds}
                if res.witness:
                    x, y, zz = res.witness
                    details["witness"] = {"X": list(x), "y": y, "z": zz}
                checks.append(Check(f"exchange[{label}]", expected, outcome,
                                    details=details))
            elif args.check == "witness":
                variant = args.variant or "standard"
                with _reading("--variant"):
                    wit = cat.witness_set(alg, variant=variant)
                expected = "finding" if (alg.kind == "linear" and variant == "plus") else "pass"
                details = {"instance": label, "witness": wit.name}
                try:
                    rep = cat.check_witness(alg, wit)
                except cat.BudgetExhausted as exc:  # ran out partway: no verdict
                    outcome = "inconclusive"
                    details |= {"exhausted": exc.counter, "cap": exc.cap}
                else:
                    outcome = "pass" if rep.ok else "finding"
                    details |= {
                        "generates": rep.generates,
                        "missing": list(rep.missing), "non_clone": list(rep.non_clone),
                        "violations": list(rep.violations[:3]),
                    }
                checks.append(Check(f"witness[{label}]", expected, outcome,
                                    details=details))
            elif args.check == "clone":
                uc = cat.unary_clone(alg)
                checks.append(Check(
                    f"clone[{label}]",
                    details={"instance": label, "non_constant_unary": len(uc.t_ops),
                             "constants": len(uc.constants)},
                ))
            elif args.check == "endos":
                endos = cat.endomorphisms(alg)
                checks.append(Check(
                    f"endos[{label}]", details={"instance": label, "count": len(endos)}
                ))
    except cat.TooLarge as exc:  # a search refused up front
        raise UsageError(str(exc)) from exc
    return checks


_DEMO_ALPHA = [["1/2", "1/2"], ["1/2", "1/2"]]
_DEMO_ACT_ALPHA = {"flavor": "A", "shifts": [-2, 0], "targets": [1, 2]}


def cmd_decompose(args):
    payload = _load_payload(args) or {}
    if args.backend == "matrix":
        matrix = _backend("indalg.orders.matrix")
        (alpha,) = _parse_qmats([payload.get("alpha", _DEMO_ALPHA)])
        if args.mode == "left":
            dec = matrix.left_decompose(alpha)
        elif args.mode == "right":
            dec = matrix.right_decompose(alpha)
        else:
            dec = matrix.straight_left_decompose(alpha)
        ok = matrix.verify_decomposition(alpha, dec, args.mode)
        with _reading("decomposition"):  # an entry too long to print
            details = {"alpha": fmt_mat(alpha), "mode": args.mode} | dec.as_dict()
        if args.mode == "straight":
            certs = matrix.straight_certificates(alpha, dec)
            details["certificates"] = certs
            ok = ok and all(certs.values())
        return [Check("decompose_recompose", outcome="pass" if ok else "fail",
                      details=details)]
    # act backend: the overmonoid decomposition is the left one
    acts = _backend("indalg.orders.acts")
    if args.mode != "left":
        raise UsageError("the act backend provides only --mode left")
    alpha = _parse_act(payload.get("alpha", _DEMO_ACT_ALPHA), acts.act_endo)
    a, b = acts.act_left_decompose(alpha)
    ok = acts.verify_act_decomposition(alpha, a, b)
    return [Check(
        "decompose_recompose", outcome="pass" if ok else "fail",
        details={"alpha": alpha.as_dict(), "mode": "left",
                 "a": a.as_dict(), "b": b.as_dict()},
    )]


_DEMO_GREENS_MATRIX = {"a": [[1, 0], [0, 0]], "b": [[1, 0], [0, 1]]}
_DEMO_GREENS_ACT = {
    "a": {"shifts": [0, 0], "targets": [1, 1]},
    "b": {"shifts": [0, 0], "targets": [1, 2]},
}


def cmd_greens(args):
    payload = _load_payload(args)
    side = args.side
    if args.backend == "matrix":
        linalg = _backend("indalg.orders.linalg")
        matrix = _backend("indalg.orders.matrix")
        order_suite = _backend("indalg.orders.suite")
        raw = payload or _DEMO_GREENS_MATRIX
        with _reading("greens payload"):
            a, b = _parse_qmats(raw[k] for k in "ab")
            if side in ("Rstar", "Lstar"):  # the starred orders compare integer matrices
                a, b = linalg.mat_z(a), linalg.mat_z(b)
        leq = matrix.greens_leq(side, a, b)
        other = order_suite.matrix_route(side, a, b)
        details = {"a": fmt_mat(a), "b": fmt_mat(b)}
    else:
        acts = _backend("indalg.orders.acts")
        order_suite = _backend("indalg.orders.suite")
        raw = payload or _DEMO_GREENS_ACT
        with _reading("greens payload"):
            a, b = (_parse_act(raw[k], acts.act_endo) for k in "ab")
        if a.n != b.n:
            raise UsageError(f"act endomorphism ranks differ: {a.n} and {b.n}")
        leq = acts.greens_leq(side, a, b)
        other = order_suite.act_route(side, a, b)
        details = {"a": a.as_dict(), "b": b.as_dict()}
    agree = leq == other
    details |= {"side": side, "leq": leq, "routes_agree": agree}
    return [Check("greens_leq", outcome="pass" if agree else "fail", details=details)]


_DEMO_QUOT_MATRIX = {"p": {"t": 2, "v": [1, 3]}, "q": {"t": 4, "v": [2, 6]}}
_DEMO_QUOT_ACT = {"p": {"k": 2, "m": 5, "i": 1}, "q": {"k": 3, "m": 6, "i": 1}}


def cmd_quotient(args):
    if args.backend == "matrix":
        matrix = _backend("indalg.orders.matrix")
    else:
        acts = _backend("indalg.orders.acts")

    payload = _load_payload(args) or {}
    with _reading("quotient payload"):
        if args.action == "embed":
            if args.backend == "matrix":
                v = _ints(payload.get("v", [1, 2]), "v")
                details = {"v": v, "element": matrix.embed(v).as_dict()}
            else:
                m = _int(payload.get("m", 2), "m")
                i = _int(payload.get("i", 1), "i")
                details = {"m": m, "i": i, "element": acts.act_embed(m, i).as_dict()}
            return [Check("quotient_embed", details=details)]
        if args.backend == "matrix":
            raw = payload or _DEMO_QUOT_MATRIX
            p, q = (matrix.quot_elem(_int(raw[e]["t"], "t"), _ints(raw[e]["v"], "v"))
                    for e in "pq")
            equal = matrix.quotient_eq(p, q)
        else:
            raw = payload or _DEMO_QUOT_ACT
            p, q = (acts.act_quot(*(_int(raw[e][f], f) for f in "kmi")) for e in "pq")
            equal = p == q
    details = {"p": p.as_dict(), "q": q.as_dict(), "equal": equal}
    return [Check("quotient_eq", details=details)]


def cmd_ore_check(args):
    monoids = _backend("indalg.orders.monoids")
    _at_least_one(args, "depth")
    monoid = monoids.MONOIDS[args.monoid]
    expected = "finding" if args.monoid == "free2" else "pass"
    checks = []
    for side in ("left", "right"):
        try:
            res = monoids.ore_check(monoid, side, args.depth)
        except ValueError as exc:  # a depth over the element cap
            raise UsageError(f"--depth: {exc}") from exc
        outcome = {"holds": "pass", "fails": "finding"}.get(
            res.status, "inconclusive"
        )
        checks.append(Check(
            f"ore[{args.monoid},{side}]", expected, outcome, details=res.as_dict()
        ))
    return checks


def cmd_suite(args):
    order_suite = _backend("indalg.orders.suite")
    _at_least_one(args, "samples")
    ranks = order_suite.RANKS[args.backend]
    if args.n not in ranks:
        raise UsageError(f"--n must be in {ranks[0]}..{ranks[-1]} for the "
                         f"{args.backend} suite")
    return order_suite.run_suite(args.backend, args.n, args.seed, args.samples)


# --- plumbing -----------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process on first use; parsing
    never changes it and every default is immutable."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--samples", type=int, default=1000)
    common.add_argument("--depth", type=int, default=4)
    common.add_argument("--n", type=int, default=2)
    common.add_argument("--format", choices=("json", "text"), default="json")
    common.add_argument("--out", help="write the report to this path")
    common.add_argument("--input", help="JSON payload path ('-' for stdin)")

    parser = argparse.ArgumentParser(
        prog="indalg",
        description="verification workbench for word algebras, finite "
        "algebra witnesses and endomorphism orders",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify-counterexample", parents=[common])
    p.add_argument("--terms", type=int, default=200)
    p.set_defaults(handler=cmd_verify_counterexample)

    p = sub.add_parser("classify", parents=[common])
    p.set_defaults(handler=cmd_classify)

    p = sub.add_parser("catalog", parents=[common])
    p.add_argument("--kind", default="all")
    p.add_argument("--params", help="instance parameters as a JSON object")
    p.add_argument("--check", choices=("exchange", "witness", "clone", "endos"),
                   default="exchange")
    p.add_argument("--variant", help="witness variant (e.g. 'plus' for linear)")
    p.set_defaults(handler=cmd_catalog)

    p = sub.add_parser("decompose", parents=[common])
    p.add_argument("--mode", choices=("left", "right", "straight"),
                   default="left")
    p.add_argument("--backend", choices=("matrix", "act"), default="matrix")
    p.set_defaults(handler=cmd_decompose)

    p = sub.add_parser("greens", parents=[common])
    p.add_argument("--side", choices=("R", "L", "Rstar", "Lstar"), default="R")
    p.add_argument("--backend", choices=("matrix", "act"), default="matrix")
    p.set_defaults(handler=cmd_greens)

    p = sub.add_parser("quotient", parents=[common])
    p.add_argument("action", choices=("eq", "embed"))
    p.add_argument("--backend", choices=("matrix", "act"), default="matrix")
    p.set_defaults(handler=cmd_quotient)

    p = sub.add_parser("ore-check", parents=[common])
    p.add_argument("--monoid", choices=("posint", "free2"), default="posint")
    p.set_defaults(handler=cmd_ore_check)

    p = sub.add_parser("suite", parents=[common])
    p.add_argument("--backend", choices=("matrix", "act"), default="act")
    p.set_defaults(handler=cmd_suite)

    return parser


def _render_text(report: dict) -> str:
    lines = [f"indalg {report['command']}  (schema {report['schema']})"]
    for c in report["checks"]:
        ok = c["outcome"] == c["expected"]
        mark = "PASS" if ok else "FAIL"
        lines.append(
            f"[{mark}] {c['name']}: outcome={c['outcome']} "
            f"expected={c['expected']}"
        )
    lines.append("ok" if report["ok"] else "CHECKS FAILED")
    return "\n".join(lines) + "\n"


def _emit(report: dict, args) -> None:
    if args.format == "text":
        text = _render_text(report)
    else:
        text = to_json(report) + "\n"
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise UsageError(f"cannot write --out: {exc}") from exc
    else:
        sys.stdout.write(text)


@functools.cache
def _flag_table() -> dict:
    """subcommand -> (flags, defaults, negative-number matcher), read off
    the parser once per process: flags maps each option string to its
    (dest, type, choices), and defaults is the namespace the bare
    subcommand parses to, ``command`` and ``handler`` included.  A
    subcommand with a positional or any action but a plain store is left
    out.  The table reads argparse's own (private) attributes, so
    ``tests/test_cli_table.py`` checks every parse it gives against
    ``parse_args``."""
    parser = build_parser()
    (subparsers,) = (a for a in parser._actions
                     if isinstance(a, argparse._SubParsersAction))
    table = {}
    for name, sub in subparsers.choices.items():
        flags = {}
        for action in sub._actions:
            if isinstance(action, argparse._HelpAction):
                continue
            if (type(action) is not argparse._StoreAction or not action.option_strings
                    or action.nargs is not None or action.required):
                break
            flags |= dict.fromkeys(action.option_strings,
                                   (action.dest, action.type, action.choices))
        else:
            if not sub._has_negative_number_optionals:
                table[name] = (flags, vars(parser.parse_args([name])),
                               sub._negative_number_matcher.match)
    return table


def _fast_parse(argv) -> argparse.Namespace | None:
    """The namespace ``build_parser().parse_args(argv)`` returns, for argv
    made of a subcommand in ``_flag_table`` and exact ``--flag value``
    pairs; None for any other argv, or for a value that argparse would not
    read as a value or that its type or choices refuse."""
    entry = _flag_table().get(argv[0]) if argv else None
    if entry is None or len(argv) % 2 == 0:
        return None
    flags, defaults, negative_number = entry
    values = dict(defaults)
    for i in range(1, len(argv), 2):
        flag = flags.get(argv[i])
        text = argv[i + 1]
        if flag is None or (text.startswith("-") and text != "-"
                            and not negative_number(text)):
            return None
        dest, convert, choices = flag
        try:
            value = text if convert is None else convert(text)
        except (TypeError, ValueError, argparse.ArgumentTypeError):
            return None
        if choices is not None and value not in choices:
            return None
        values[dest] = value
    return argparse.Namespace(**values)


def run(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _fast_parse(argv)
    if args is None:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:
            return int(exc.code) if exc.code is not None else 0
    config = {
        k: v
        for k, v in sorted(vars(args).items())
        if k not in ("handler", "out", "input") and v is not None
    }
    try:
        checks = args.handler(args)
        ok = all(c.outcome == c.expected for c in checks)
        _emit({
            "schema": 1,
            "command": args.command,
            "config": config,
            "checks": [vars(c) for c in checks],
            "ok": ok,
        }, args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0 if ok else 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
