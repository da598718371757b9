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
and the part of ``orders`` its backend needs: ``acts`` alone, without
``fractions`` or ``decimal``, for an act ``decompose`` or ``quotient``, and
``monoids`` alone for ``ore-check`` (``greens`` and ``suite`` also load
``orders.suite``, which reads both backends).  ``_backend`` imports a
module on its first use and reads it from ``sys.modules`` after that, since
an import statement of a loaded module still costs about a microsecond (a
relative one runs ``ModuleSpec.parent`` and ``_handle_fromlist`` in
Python).  One process per report then pays only for what that report runs.
No import sits on a path taken once per matrix entry, sample or term:
``_parse_qmats`` imports ``fractions`` once a payload and reads all of
its matrices, and ``_parse_acts`` looks its constructor up once a payload.

The ``orders`` subcommands have one path for both backends: ``_orders``
looks ``--backend`` up in ``_ORDERS`` (its module and payload readers), and
the handler calls the names both backend modules define.

``json`` is imported only where JSON is read: by ``_load_payload`` for an
``--input`` payload, by ``catalog`` for ``--params``, and by ``_int`` to
show a value it refuses.  The report is written by ``report.to_json``: the
bytes of ``json.dumps(report, indent=2, sort_keys=True)``, with ``_json``'s
string escaper alone, and a TypeError for any value but a str, int, bool,
None, list or dict with str keys.  A result holding an integer too long to
print is a usage error, raised where the report is written.  ``classify``
parses its payload with one coefficient table (text -> word) for all its
terms, so each distinct ``nu`` coefficient text is parsed once a report.

Every subcommand's handler, positional and flags (dest, type, choices,
default) are declared once, in ``_COMMANDS``, and ``parse`` reads every
argv against that one table: ``-h`` prints help (exit 0), and an argv it
refuses is a usage error like any other (``error: ...``, exit 2).  Each
entry names the shared ``_COMMON`` flags its handler reads, and a
subcommand accepts and lists in its help only the flags it reads: a flag it
would ignore, such as ``catalog --samples 7``, is an unrecognized argument.
The defaults of the others still fill its ``config``, so every report's
config holds every shared key.
"""

from __future__ import annotations

import functools
import sys
from contextlib import contextmanager
from types import SimpleNamespace

from .report import Check, max_digits, to_json


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
    matrices: rows of integers and exact strings like '1/2'.  Each is read
    with ``Fraction`` and split once into the matrix backend's form,
    integer rows over one positive denominator.  The items are read in
    turn, so an error in one is met before the next is looked up."""
    from fractions import Fraction  # once a payload, never once an entry

    split = _backend("indalg.orders.linalg").split
    out = []
    for rows in matrices:
        if not (isinstance(rows, list) and rows
                and all(isinstance(r, list) and len(r) == len(rows) for r in rows)):
            raise UsageError("a matrix must be a non-empty square list of rows")
        if out and len(rows) != len(out[0][0]):
            raise UsageError(f"matrix sizes differ: {len(out[0][0])} and {len(rows)}")
        if any(type(x) not in (int, str) for row in rows for x in row):
            raise UsageError("matrix entries must be integers or exact strings "
                             "like '1/2'")
        with _reading("bad matrix entry"):
            out.append(split([list(map(Fraction, map(_exact, row))) for row in rows]))
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


def _parse_acts(items) -> list:
    """Act endomorphisms of one rank, one from each item, read in turn."""
    act_endo = _backend("indalg.orders.acts").act_endo  # once a payload
    out = []
    for d in items:
        with _reading("bad act endomorphism"):
            theta = act_endo(d.get("flavor", "B"), _ints(d["shifts"], "shifts"),
                             _ints(d["targets"], "targets"))
        if out and theta.n != out[0].n:
            raise UsageError(f"act endomorphism ranks differ: {out[0].n} and {theta.n}")
        out.append(theta)
    return out


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
                with _reading("--variant"):
                    wit = cat.witness_set(alg, variant=args.variant or "standard")
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
                checks.append(Check(f"witness[{label}]", wit.expected, outcome,
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


# The orders backends by --backend, the one place that names them: the
# module, its element reader, the demo payload of every subcommand, the
# readers of ``quot``'s fields in order, and its suite's ranks, runner and
# second Green's route.  The last two are names in ``orders.suite``, looked up
# on each call, so that a wrapper the span tracer binds there runs.
_ORDERS = {
    "matrix": SimpleNamespace(
        module="indalg.orders.matrix", read=_parse_qmats,
        demo={"alpha": [["1/2", "1/2"], ["1/2", "1/2"]], "a": [[1, 0], [0, 0]],
              "b": [[1, 0], [0, 1]], "p": {"t": 2, "v": [1, 3]},
              "q": {"t": 4, "v": [2, 6]}, "v": [1, 2]},
        fields={"t": _int, "v": _ints},
        ranks=range(1, 5), suite="run_matrix_suite", route="matrix_route"),
    "act": SimpleNamespace(
        module="indalg.orders.acts", read=_parse_acts,
        demo={"alpha": {"flavor": "A", "shifts": [-2, 0], "targets": [1, 2]},
              "a": {"shifts": [0, 0], "targets": [1, 1]},
              "b": {"shifts": [0, 0], "targets": [1, 2]},
              "p": {"k": 2, "m": 5, "i": 1}, "q": {"k": 3, "m": 6, "i": 1},
              "m": 2, "i": 1},
        fields={"k": _int, "m": _int, "i": _int},
        ranks=range(1, 4), suite="run_act_suite", route="act_route"),
}


def _orders(args):
    """The module ``--backend`` names, imported on first use, and its row."""
    row = _ORDERS[args.backend]
    return _backend(row.module), row


def cmd_decompose(args):
    backend, row = _orders(args)
    payload = _load_payload(args) or {}
    mode = args.mode
    if mode not in backend.MODES:
        raise UsageError(f"the {args.backend} backend provides only --mode "
                         + "/".join(backend.MODES))
    (alpha,) = row.read([payload.get("alpha", row.demo["alpha"])])
    a, b = dec = backend.decompose(alpha, mode)
    ok = backend.verify_decomposition(alpha, dec, mode)
    show = backend.show
    with _reading("decomposition"):  # an entry too long to print
        details = {"alpha": show(alpha), "mode": mode, "a": show(a), "b": show(b)}
    if mode == "straight":
        certs = backend.straight_certificates(alpha, dec)
        details["certificates"] = certs
        ok = ok and all(certs.values())
    return [Check("decompose_recompose", outcome="pass" if ok else "fail",
                  details=details)]


def cmd_greens(args):
    backend, row = _orders(args)
    order_suite = _backend("indalg.orders.suite")
    raw = _load_payload(args) or row.demo
    side = args.side
    with _reading("greens payload"):  # also a starred side's non-integer matrix
        a, b = row.read(raw[k] for k in "ab")
        leq = backend.greens_leq(side, a, b)
    agree = leq == getattr(order_suite, row.route)(side, a, b)
    details = {"a": backend.show(a), "b": backend.show(b), "side": side,
               "leq": leq, "routes_agree": agree}
    return [Check("greens_leq", outcome="pass" if agree else "fail", details=details)]


def cmd_quotient(args):
    backend, row = _orders(args)
    payload = _load_payload(args) or {}
    with _reading("quotient payload"):
        if args.action == "embed":  # embed takes quot's fields but the first
            details = {f: read(payload.get(f, row.demo[f]), f)
                       for f, read in list(row.fields.items())[1:]}
            details["element"] = backend.embed(*details.values()).as_dict()
            return [Check("quotient_embed", details=details)]
        raw = payload or row.demo
        p, q = (backend.quot(*(read(raw[e][f], f) for f, read in row.fields.items()))
                for e in "pq")
        equal = backend.quotient_eq(p, q)
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
            f"ore[{args.monoid},{side}]", expected, outcome, details=res._asdict()
        ))
    return checks


def cmd_suite(args):
    _, row = _orders(args)
    order_suite = _backend("indalg.orders.suite")
    _at_least_one(args, "samples")
    if args.n not in row.ranks:
        raise UsageError(f"--n must be in {row.ranks[0]}..{row.ranks[-1]} for the "
                         f"{args.backend} suite")
    return getattr(order_suite, row.suite)(args.n, args.seed, args.samples)


# --- the command line ---------------------------------------------------------

# A flag by its dest, as (type, choices, default[, help]): the text after
# ``--dest`` is read by type and must then be one of choices, if any.
_COMMON = {
    "seed": (int, None, 0), "samples": (int, None, 1000), "depth": (int, None, 4),
    "n": (int, None, 2), "format": (str, ("json", "text"), "json"),
    "out": (str, None, None, "write the report to this path"),
    "input": (str, None, None, "JSON payload path ('-' for stdin)"),
}
_EMIT = ("format", "out")  # read by run for every subcommand
_BACKENDS = tuple(_ORDERS)
# subcommand -> (handler, positional or None, the _COMMON flags besides
# _EMIT its handler reads, its own flags); a positional is given as
# build_parser gives a flag: (dest, type, choices, name).  A subcommand
# accepts only the flags it reads, but every _COMMON default still lands in
# its config.
_COMMANDS = {
    "verify-counterexample": (cmd_verify_counterexample, None,
                              ("seed", "samples", "depth"),
                              {"terms": (int, None, 200)}),
    "classify": (cmd_classify, None, ("input",), {}),
    "catalog": (cmd_catalog, None, (), {
        "kind": (str, None, "all"),
        "params": (str, None, None, "instance parameters as a JSON object"),
        "check": (str, ("exchange", "witness", "clone", "endos"), "exchange"),
        "variant": (str, None, None, "witness variant (e.g. 'plus' for linear)")}),
    "decompose": (cmd_decompose, None, ("input",), {
        "mode": (str, ("left", "right", "straight"), "left"),
        "backend": (str, _BACKENDS, "matrix")}),
    "greens": (cmd_greens, None, ("input",), {
        "side": (str, ("R", "L", "Rstar", "Lstar"), "R"),
        "backend": (str, _BACKENDS, "matrix")}),
    "quotient": (cmd_quotient, ("action", str, ("eq", "embed"), "action"), ("input",),
                 {"backend": (str, _BACKENDS, "matrix")}),
    "ore-check": (cmd_ore_check, None, ("depth",),
                  {"monoid": (str, ("posint", "free2"), "posint")}),
    "suite": (cmd_suite, None, ("seed", "samples", "n"),
              {"backend": (str, _BACKENDS, "act")}),
}
_HELP = ("help", None, None, "-h/--help")  # what -h and --help map to
_TOP = {"-h": _HELP, "--help": _HELP}  # the options before the subcommand


class Help(Exception):
    """-h or --help was read: its one argument is the text to print."""


@functools.cache
def build_parser() -> dict:
    """subcommand -> (options, defaults, positional), read off ``_COMMANDS``
    once per process: options maps the option string of each flag the
    subcommand reads to ``(dest, type, choices, name)``, and -h and --help
    to ``_HELP``; defaults holds the default of every flag, read or not."""
    table = {}
    for name, (handler, positional, reads, own) in _COMMANDS.items():
        options, defaults = dict(_TOP), {"command": name, "handler": handler}
        for dest, (convert, choices, default, *_) in (_COMMON | own).items():
            defaults[dest] = default
            if dest in own or dest in reads or dest in _EMIT:
                options[f"--{dest}"] = dest, convert, choices, f"--{dest}"
        table[name] = options, defaults, positional
    return table


def _option(options: dict, token: str):
    """None if token is an argument: one not starting with '-', or '-', a
    negative number or a text with a space that names no option.  Else the
    entry of options that token up to any '=' names, whole or as a unique
    prefix (None for no entry), and the text after the '=' (None without)."""
    if token[:1] != "-" or token == "-":
        return None
    name, eq, text = token.partition("=")
    if name not in options and name.startswith("--") and name != "--":
        matches = [o for o in options if o.startswith(name)]
        if len(matches) > 1:
            raise UsageError(f"ambiguous option: {name} could match {', '.join(matches)}")
        name = matches[0] if matches else name
    if name in options:
        return options[name], (text if eq else None)
    whole, dot, frac = token[1:].partition(".")  # a negative number: \d+ or \d*\.\d+
    number = (whole.isdecimal() or not whole and dot) and (frac.isdecimal() or not dot)
    return None if number or " " in token else (None, None)


def parse(argv) -> SimpleNamespace:
    """The subcommand's defaults, updated by its positional and by each
    ``--flag value`` or ``--flag=value`` (the last of a repeated flag wins).
    Raises Help for -h or --help, UsageError for a refused argv: an unknown
    option or an argument too many only after the rest, where a later -h is
    still read; '--' with all that follows it.  An argument right after an
    unknown option that is not a choice of the positional is that option's
    value, so ``quotient --seed 0 embed`` names ``--seed 0``, not ``0``."""
    table = build_parser()
    options, values, positional = _TOP, {}, ("command", str, table, "command")
    strays, tokens, stray_option = [], iter(argv), False
    for token in tokens:
        after_stray, stray_option = stray_option, False
        flag, text = options.get(token), None
        if flag is None:
            flag, text = _option(options, token) or (positional, token)
            if flag is None:  # an unknown option or an argument too many
                strays += [token, *tokens] if token == "--" else [token]
                stray_option = token[:1] == "-" and "=" not in token
                continue
            if flag is positional:
                positional = None
                if after_stray and token not in flag[2]:
                    raise UsageError(f"unrecognized arguments: {' '.join(strays)} {token}")
        if flag is _HELP:
            if text is not None:
                raise UsageError(f"{token}: -h/--help takes no value")
            raise Help(_help(values.get("command")))
        dest, convert, choices, name = flag
        if text is None:
            text = next(tokens, None)
            if text is None or _option(options, text) is not None:
                raise UsageError(f"argument {name}: expected one argument")
        try:
            value = convert(text)
        except ValueError:
            raise UsageError(f"argument {name}: invalid {convert.__name__} "
                             f"value: {text!r}") from None
        if choices is not None and value not in choices:
            raise UsageError(f"argument {name}: invalid choice: {value!r} "
                             f"(choose from {', '.join(map(repr, choices))})")
        if options is _TOP:  # the subcommand: read the rest by its table
            options, values, positional = table[value]
            values = dict(values)
        values[dest] = value
    if positional is not None:
        raise UsageError(f"the following arguments are required: {positional[0]}")
    if strays:
        raise UsageError(f"unrecognized arguments: {' '.join(strays)}")
    return SimpleNamespace(**values)


def _help(command: str | None) -> str:
    """The subcommands, for None; else the flags command reads, with
    choices and defaults."""
    if command is None:
        return "usage: indalg COMMAND [--flag value ...]\n\ncommands:\n" + "".join(
            f"  {name}\n" for name in _COMMANDS)
    options = build_parser()[command][0]
    _, positional, _, own = _COMMANDS[command]
    usage = " {%s}" % ",".join(positional[2]) if positional else ""
    text = f"usage: indalg {command}{usage} [--flag value ...]\n\nflags:\n"
    text += "  -h, --help             show this help\n"
    for dest, (convert, choices, default, *about) in (_COMMON | own).items():
        if f"--{dest}" not in options:
            continue
        kind = "{%s}" % ",".join(choices) if choices else convert.__name__.upper()
        about += [f"(default: {default})"] * (default is not None)
        text += f"  --{dest} {kind}".ljust(24) + " ".join(["", *about]) + "\n"
    return text


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
        try:
            text = to_json(report) + "\n"
        except ValueError as exc:  # a result with an integer too long to print
            raise UsageError(f"cannot write the report: {exc}") from exc
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise UsageError(f"cannot write --out: {exc}") from exc
    else:
        sys.stdout.write(text)


def run(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = parse(argv)
        config = {k: v for k, v in sorted(vars(args).items())
                  if k not in ("handler", "out", "input") and v is not None}
        checks = args.handler(args)
        ok = all(c.outcome == c.expected for c in checks)
        _emit({"schema": 1, "command": args.command, "config": config,
               "checks": [vars(c) for c in checks], "ok": ok}, args)
    except Help as exc:
        sys.stdout.write(str(exc))
        return 0
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0 if ok else 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
