"""Span tracing of indalg's layers from outside the package.

``Tracer.install`` wraps each public function named in ``TARGETS`` and
rebinds the wrapper everywhere the original is bound: in its own module, in
every ``indalg`` module that imported it by name, and on its class for
methods.  ``Tracer.restore`` puts every original back.  While installed, each
call records one span (name, start, end, parent span, report id) in flat
in-memory arrays; self time is computed from the spans afterwards.
"""

from __future__ import annotations

import json
import sys
import weakref
from array import array
from importlib import import_module
from time import perf_counter

# module (as named inside the package) -> wrapped public functions
TARGETS = {
    "words": ("mul", "inv"),
    "terms": ("evaluate", "parse_term", "sample_terms", "meta"),
    "counterexample": ("HMap.lookup", "classify", "refute_distributivity",
                       "check_homogeneity"),
    "catalog": ("closure", "check_exchange", "unary_clone", "endomorphisms",
                "generated_covers", "check_witness"),
    "orders.linalg": ("rref", "matmul", "solve_left", "solve_right", "hnf_rows",
                      "left_kernel_int", "saturation"),
    "orders.matrix": ("greens_leq", "divides_left", "group_inverse",
                      "straight_left_decompose"),
    "orders.acts": ("compose", "kernel_key", "greens_leq", "left_ore_solve"),
    "orders.monoids": ("ore_check",),
    "orders.suite": ("run_matrix_suite", "run_act_suite", "window_kernel_leq"),
    "cli": ("run",),
}

SPECS = tuple((mod, fn) for mod, fns in TARGETS.items() for fn in fns)
SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fn in SPECS)


class Tracer:
    def __init__(self):
        self.report_id = -1
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.report = array("i")
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        # counters
        self.lookups = 0
        self.repeats = 0
        self.max_index_bits = 0
        self.pairs_checked = 0
        self._seen_words = weakref.WeakKeyDictionary()  # HMap -> set of words

    # --- patching ------------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for name, m in list(sys.modules.items())
                   if (name == "indalg" or name.startswith("indalg.")) and m]
        for nid, (mod_name, qual) in enumerate(SPECS):
            module = import_module(f"indalg.{mod_name}")
            if "." in qual:
                cls_name, meth = qual.split(".")
                cls = getattr(module, cls_name)
                self._patch(cls, meth, self._wrap(nid, cls.__dict__[meth]))
                continue
            original = getattr(module, qual)
            wrapper = self._wrap(nid, original)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        self._patch(m, attr, wrapper)

    def _patch(self, owner, attr, wrapper) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _wrap(self, nid: int, fn):
        observe = {
            "counterexample.HMap.lookup": self._observe_lookup,
            "orders.monoids.ore_check": self._observe_ore,
        }.get(SPAN_NAMES[nid])
        stack = self._stack
        name, start, end = self.name, self.start, self.end
        parent, report = self.parent, self.report

        def traced(*args, **kwargs):
            idx = len(name)
            name.append(nid)
            parent.append(stack[-1] if stack else -1)
            report.append(self.report_id)
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
            if observe is not None:
                observe(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # --- counters ------------------------------------------------------------

    def _observe_lookup(self, args, result) -> None:
        hmap, word = args
        seen = self._seen_words.setdefault(hmap, set())
        self.lookups += 1
        if word in seen:
            self.repeats += 1
        else:
            seen.add(word)
        self.max_index_bits = max(self.max_index_bits, result.bit_length())

    def _observe_ore(self, args, result) -> None:
        self.pairs_checked += result.pairs_checked

    # --- results -------------------------------------------------------------

    def self_times(self) -> tuple[list[int], list[float]]:
        """Per span name: number of spans and total self time (seconds)."""
        n = len(self.name)
        child = array("d", bytes(8 * n))
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        calls = [0] * len(SPAN_NAMES)
        self_s = [0.0] * len(SPAN_NAMES)
        for i in range(n):
            nid = self.name[i]
            calls[nid] += 1
            self_s[nid] += self.end[i] - self.start[i] - child[i]
        return calls, self_s

    def write_spans(self, path) -> None:
        """Write a JSON header line, then the span arrays in header order."""
        arrays = (("name", self.name), ("start", self.start), ("end", self.end),
                  ("parent", self.parent), ("report", self.report))
        header = {"names": SPAN_NAMES, "count": len(self.name),
                  "arrays": [[field, arr.typecode] for field, arr in arrays]}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for _, arr in arrays:
                arr.tofile(fh)


def read_spans(path) -> tuple[list[str], dict[str, array]]:
    """Span names and the arrays written by ``Tracer.write_spans``."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        arrays = {}
        for field, typecode in header["arrays"]:
            arr = array(typecode)
            arr.fromfile(fh, header["count"])
            arrays[field] = arr
    return header["names"], arrays

def meta_cache_entries() -> int:
    """Entries held by the ``terms.meta`` cache (0 if it is not an lru_cache)."""
    info = getattr(import_module("indalg.terms").meta, "cache_info", None)
    return info().currsize if info else 0
