"""Command-line interface.

Each subcommand runs a batch of checks and emits a deterministic report:
identical configurations produce byte-identical JSON.  A check carries an
``expected`` field ("pass" or "finding") so that mathematically expected
failures -- the semilattice control breaking exchange, the free monoid
breaking the Ore condition, the mock backend breaking the constant
surjection -- are distinguished from genuine errors.  The exit status is
0 when every outcome matches its expectation, 1 otherwise, 2 on usage
errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import catalog as cat
from . import counterexample as cx
from . import terms as tm
from . import words as wd
from . import orders
from .orders import acts, matrix, monoids
from .orders import suite as order_suite


class UsageError(Exception):
    pass


# --- input parsing -----------------------------------------------------------


def _load_payload(args) -> dict | None:
    if not getattr(args, "input", None):
        return None
    try:
        if args.input == "-":
            return json.load(sys.stdin)
        with open(args.input, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read input: {exc}") from exc


def _parse_qmat(rows):
    out = []
    for row in rows:
        r = []
        for x in row:
            if isinstance(x, float):
                raise UsageError("rational entries must be exact strings like '1/2'")
            r.append(Fraction(x) if isinstance(x, int) else Fraction(str(x)))
        out.append(tuple(r))
    return tuple(out)


def _parse_zmat(rows):
    try:
        return tuple(tuple(int(Fraction(str(x))) for x in row) for row in rows)
    except ValueError as exc:
        raise UsageError(f"integer matrix expected: {exc}") from exc


def _parse_act(d) -> acts.ActEndo:
    try:
        return acts.act_endo(d.get("flavor", "B"), d["shifts"], d["targets"])
    except (KeyError, ValueError, TypeError) as exc:
        raise UsageError(f"bad act endomorphism: {exc}") from exc


def _fmt_qmat(m):
    return [[str(x) for x in row] for row in m]


# --- subcommand handlers ------------------------------------------------------


def _check(name, expected, outcome, details):
    return {"name": name, "expected": expected, "outcome": outcome,
            "details": details}


def cmd_verify_counterexample(args):
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
    checks = [_check("pinned_g_values", "pass", "pass" if all_ok else "fail",
                     {"values": rows})]

    hom = cx.check_homogeneity(h, args.samples, seed=args.seed)
    checks.append(_check(
        "right_translation_homogeneity", "pass",
        "pass" if hom["ok"] else "fail",
        {"samples": hom["samples"], "failures": hom["failures"][:3]},
    ))

    pool = [z(1), z(2), z(3), wd.mul(z(1), z(2)), wd.mul(z(3), z(1))]
    corpus = tm.sample_terms(
        max_depth=args.depth, max_var=3, coeff_pool=pool,
        seed=args.seed, count=args.terms,
    )
    unrefuted = []
    refuted = 0
    constant = 0
    for t in corpus:
        form = cx.classify(t, h)
        if form.form == 1:
            constant += 1
            continue
        ref = cx.refute_distributivity(t, h)
        if ref.holds:
            refuted += 1
        else:
            unrefuted.append(tm.format_term(t))
    checks.append(_check(
        "distributivity_refutations", "pass",
        "pass" if not unrefuted else "fail",
        {"terms": len(corpus), "constant_prefix": constant,
         "refuted": refuted, "unrefuted": unrefuted[:3]},
    ))
    return checks


_DEMO_TERMS = [
    "x1",
    "nu(z3, x1)",
    "g(x1, x2)",
    "g(nu(z3, x1), x1)",
    "g(nu(z1, x1), nu(z2, x2))",
]


def cmd_classify(args):
    payload = _load_payload(args) or {}
    texts = payload.get("terms", _DEMO_TERMS)
    h = cx.HMap()
    rows = []
    outcome = "pass"
    for text in texts:
        try:
            t = tm.parse_term(text)
            form = cx.classify(t, h)
        except (ValueError, tm.ArityError) as exc:
            rows.append({"term": text, "error": str(exc)})
            outcome = "fail"
            continue
        row = {"term": text, "form": form.form, "case": form.case,
               "arity": form.arity, "star": form.star}
        if form.form == 1:
            row["prefix"] = wd.format_word(form.prefix)
        rows.append(row)
    return [_check("classification", "pass", outcome, {"terms": rows})]


def _catalog_instances(args):
    if args.kind == "all":
        algs = cat.default_catalog() + [cat.make_instance("semilattice")]
        return algs
    try:
        params = json.loads(args.params) if args.params else {}
    except json.JSONDecodeError as exc:
        raise UsageError(f"--params must be JSON: {exc}") from exc
    try:
        return [cat.make_instance(args.kind, **params)]
    except (cat.InvalidParams, TypeError) as exc:
        raise UsageError(str(exc)) from exc


def _instance_label(alg) -> str:
    return f"{alg.kind}(size={alg.size})"


def cmd_catalog(args):
    try:
        return _catalog_checks(args)
    except cat.TooLarge as exc:
        raise UsageError(str(exc)) from exc


def _catalog_checks(args):
    checks = []
    for alg in _catalog_instances(args):
        label = _instance_label(alg)
        if args.check == "exchange":
            expected = "finding" if alg.kind == "semilattice" else "pass"
            res = cat.check_exchange(alg)
            outcome = "pass" if res.holds else "finding"
            details = {"instance": label, "holds": res.holds}
            if res.witness:
                x, y, zz = res.witness
                details["witness"] = {"X": list(x), "y": y, "z": zz}
            checks.append(_check(f"exchange[{label}]", expected, outcome, details))
        elif args.check == "witness":
            variant = args.variant or ("standard")
            wit = cat.witness_set(alg, variant=variant)
            rep = cat.check_witness(alg, wit)
            expected = "finding" if (alg.kind == "linear" and variant == "plus") else "pass"
            outcome = "pass" if rep.ok else "finding"
            details = {
                "instance": label, "witness": wit.name,
                "generates": rep.generates,
                "missing": list(rep.missing), "non_clone": list(rep.non_clone),
                "violations": list(rep.violations[:3]),
            }
            checks.append(_check(f"witness[{label}]", expected, outcome, details))
        elif args.check == "clone":
            uc = cat.unary_clone(alg)
            checks.append(_check(
                f"clone[{label}]", "pass", "pass",
                {"instance": label, "non_constant_unary": len(uc.t_ops),
                 "constants": len(uc.constants)},
            ))
        elif args.check == "endos":
            endos = cat.endomorphisms(alg)
            checks.append(_check(
                f"endos[{label}]", "pass", "pass",
                {"instance": label, "count": len(endos)},
            ))
    return checks


_DEMO_ALPHA = [["1/2", "1/2"], ["1/2", "1/2"]]
_DEMO_ACT_ALPHA = {"flavor": "A", "shifts": [-2, 0], "targets": [1, 2]}


def cmd_decompose(args):
    payload = _load_payload(args) or {}
    if args.backend == "matrix":
        alpha = _parse_qmat(payload.get("alpha", _DEMO_ALPHA))
        if args.mode == "left":
            dec = matrix.left_decompose(alpha)
        elif args.mode == "right":
            dec = matrix.right_decompose(alpha)
        else:
            dec = matrix.straight_left_decompose(alpha)
        ok = matrix.verify_decomposition(alpha, dec, args.mode)
        details = {"alpha": _fmt_qmat(alpha), "mode": args.mode} | dec.as_dict()
        if args.mode == "straight":
            certs = matrix.straight_certificates(alpha, dec)
            details["certificates"] = certs
            ok = ok and all(certs.values())
        return [_check("decompose_recompose", "pass",
                       "pass" if ok else "fail", details)]
    # act backend: the overmonoid decomposition is the left one
    if args.mode != "left":
        raise UsageError("the act backend provides only --mode left")
    alpha = _parse_act(payload.get("alpha", _DEMO_ACT_ALPHA))
    a, b = acts.act_left_decompose(alpha)
    ok = acts.verify_act_decomposition(alpha, a, b)
    return [_check(
        "decompose_recompose", "pass", "pass" if ok else "fail",
        {"alpha": alpha.as_dict(), "mode": "left",
         "a": a.as_dict(), "b": b.as_dict()},
    )]


_DEMO_GREENS_MATRIX = {"a": [[1, 0], [0, 0]], "b": [[1, 0], [0, 1]]}
_DEMO_GREENS_ACT = {
    "a": {"shifts": [0, 0], "targets": [1, 1]},
    "b": {"shifts": [0, 0], "targets": [1, 2]},
}


def cmd_greens(args):
    payload = _load_payload(args) or {}
    side = args.side
    if args.backend == "matrix":
        raw = payload or _DEMO_GREENS_MATRIX
        if side in ("Rstar", "Lstar"):
            a, b = _parse_zmat(raw["a"]), _parse_zmat(raw["b"])
            leq = orders.greens_leq("matrix", side, a, b)
            plain = "R" if side == "Rstar" else "L"
            other = orders.greens_leq(
                "matrix", plain, matrix.lift_endo(a), matrix.lift_endo(b)
            )
        else:
            a, b = _parse_qmat(raw["a"]), _parse_qmat(raw["b"])
            leq = orders.greens_leq("matrix", side, a, b)
            if side == "R":
                other = matrix.divides_left(a, b) is not None
            else:
                other = matrix.divides_right(a, b) is not None
        details = {"a": _fmt_qmat(a), "b": _fmt_qmat(b), "side": side, "leq": leq}
    else:
        raw = payload or _DEMO_GREENS_ACT
        a, b = _parse_act(raw["a"]), _parse_act(raw["b"])
        leq = orders.greens_leq("act", side, a, b)
        if side in ("R", "Rstar"):
            other = order_suite.window_kernel_leq(a, b)
        else:
            gamma = order_suite.construct_image_gamma(a, b)
            other = gamma is not None and acts.compose(
                gamma, acts.lift_endo(b)
            ) == acts.ActEndo("A", a.shifts, a.targets)
        details = {"a": a.as_dict(), "b": b.as_dict(), "side": side, "leq": leq}
    agree = leq == other
    details["routes_agree"] = agree
    return [_check("greens_leq", "pass", "pass" if agree else "fail", details)]


_DEMO_QUOT_MATRIX = {"p": {"t": 2, "v": [1, 3]}, "q": {"t": 4, "v": [2, 6]}}
_DEMO_QUOT_ACT = {"p": {"k": 2, "m": 5, "i": 1}, "q": {"k": 3, "m": 6, "i": 1}}


def cmd_quotient(args):
    payload = _load_payload(args) or {}
    if args.action == "embed":
        if args.backend == "matrix":
            v = payload.get("v", [1, 2])
            elem = matrix.embed(v)
            details = {"v": list(v), "element": elem.as_dict()}
        else:
            m = payload.get("m", 2)
            i = payload.get("i", 1)
            details = {"m": m, "i": i, "element": acts.act_embed(m, i).as_dict()}
        return [_check("quotient_embed", "pass", "pass", details)]
    if args.backend == "matrix":
        raw = payload or _DEMO_QUOT_MATRIX
        p = matrix.quot_elem(raw["p"]["t"], raw["p"]["v"])
        q = matrix.quot_elem(raw["q"]["t"], raw["q"]["v"])
        equal = matrix.quotient_eq(p, q)
        details = {"p": p.as_dict(), "q": q.as_dict(), "equal": equal}
    else:
        raw = payload or _DEMO_QUOT_ACT
        p = acts.act_quot(raw["p"]["k"], raw["p"]["m"], raw["p"]["i"])
        q = acts.act_quot(raw["q"]["k"], raw["q"]["m"], raw["q"]["i"])
        equal = acts.act_quotient_eq(p, q)
        details = {"p": p.as_dict(), "q": q.as_dict(), "equal": equal}
    return [_check("quotient_eq", "pass", "pass", details)]


def cmd_ci_check(args):
    backends = ["matrix", "act", "mock"] if args.backend == "all" else [args.backend]
    checks = []
    for backend in backends:
        res = monoids.ci_check(backend)
        expected = "finding" if backend == "mock" else "pass"
        outcome = "pass" if res.ok else "finding"
        checks.append(_check(f"ci[{backend}]", expected, outcome, res.as_dict()))
    return checks


def cmd_ore_check(args):
    monoid = monoids.MONOIDS.get(args.monoid)
    if monoid is None:
        raise UsageError(f"unknown monoid {args.monoid!r}")
    expected = "finding" if args.monoid == "free2" else "pass"
    checks = []
    for side in ("left", "right"):
        res = monoids.ore_check(monoid, side, args.depth)
        outcome = {"holds": "pass", "fails": "finding"}.get(
            res.status, "inconclusive"
        )
        checks.append(_check(
            f"ore[{args.monoid},{side}]", expected, outcome, res.as_dict()
        ))
    return checks


def cmd_suite(args):
    raw = order_suite.run_suite(args.backend, args.n, args.seed, args.samples)
    return [
        _check(c["name"], c["expected"], c["outcome"],
               {"samples": c["samples"], "failures": c["failures"],
                **c["details"]})
        for c in raw
    ]


# --- plumbing -----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
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

    p = sub.add_parser("ci-check", parents=[common])
    p.add_argument("--backend", choices=("matrix", "act", "mock", "all"),
                   default="all")
    p.set_defaults(handler=cmd_ci_check)

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
        text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    config = {
        k: v
        for k, v in sorted(vars(args).items())
        if k not in ("handler", "out", "input") and v is not None
    }
    try:
        checks = args.handler(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    ok = all(c["outcome"] == c["expected"] for c in checks)
    report = {
        "schema": 1,
        "command": args.command,
        "config": config,
        "checks": checks,
        "ok": ok,
    }
    _emit(report, args)
    return 0 if ok else 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
