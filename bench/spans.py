"""Spans around the package's public functions, installed from outside it.

A traced run rebinds each function listed in TRACED, in every
``modelspace`` module namespace that holds it, to a wrapper that records a
span: name, start, end, parent span and operation id.  Calls between
modules therefore nest.  Spans stay in memory until the run ends; the
wrappers are removed afterwards.  A span's self time is its duration minus
the time its child spans cover.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import statistics
import sys
import time
from collections import Counter, defaultdict


def _suite(args, result):
    return args[0]


def _build(args, result):
    return (result.dimension, result.samples_used)


def _oracle(args, result):
    return result[1]


def _branch(args, result):
    return result.branch


def _length(args, result):
    return len(result)


def _command(args, result):
    argv = args[0] if args else None
    return argv[0] if argv else None


# (module, function, span name, detail(args, result) or None)
TRACED = (
    ("inner", "gcd", "inner.gcd", None),
    ("inner", "lcm", "inner.lcm", None),
    ("inner", "divides", "inner.divides", None),
    ("inner", "equiv", "inner.equiv", None),
    ("inner", "multiply", "inner.multiply", None),
    ("inner", "exact_divide", "inner.exact_divide", None),
    ("inner", "enumerate_blaschke_divisors", "inner.enumerate_blaschke_divisors", None),
    ("hardy", "circle_nodes", "hardy.circle_nodes", None),
    ("hardy", "fourier_coefficients", "hardy.fourier_coefficients", None),
    ("hardy", "h2_inner_product", "hardy.h2_inner_product", None),
    ("model", "build_model_operator", "model.build", _build),
    ("model", "oracle_compressed_shift", "model.oracle", _oracle),
    ("calculus", "apply", "calculus.apply", None),
    ("calculus", "check_multiplicativity", "calculus.check_multiplicativity", None),
    ("calculus", "check_contractivity", "calculus.check_contractivity", None),
    ("calculus", "operator_norm", "calculus.operator_norm", None),
    ("extraction", "extract_invariant_subspace", "extraction.extract", _branch),
    ("extraction", "minimal_function", "extraction.minimal_function", None),
    ("extraction", "divisor_kernel_subspace", "extraction.divisor_kernel", None),
    ("extraction", "cyclic_subspace", "extraction.cyclic_subspace", None),
    ("extraction", "restrict", "extraction.restrict", None),
    ("serialize", "inner_to_json", "serialize.to_json", None),
    ("serialize", "model_to_json", "serialize.to_json", None),
    ("serialize", "certificate_to_json", "serialize.to_json", None),
    ("serialize", "inner_from_json", "serialize.from_json", None),
    ("serialize", "model_from_json", "serialize.from_json", None),
    ("serialize", "canonical_dumps", "serialize.dumps", _length),
    ("serialize", "parse_json", "serialize.parse", None),
    ("verify", "run_suite", "verify.run_suite", _suite),
    ("cli", "main", "cli.main", _command),
)


class Tracer:
    """Records spans while installed; ``op`` tags spans with the operation."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, op, detail]
        self.op = 0
        self._stack = []
        self._saved = []

    def _wrap(self, fn, name, detail):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if detail is not None:
                span[5] = detail(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    @contextlib.contextmanager
    def installed(self):
        for module_name, _, _, _ in TRACED:
            importlib.import_module("modelspace." + module_name)
        modules = [
            m for key, m in list(sys.modules.items())
            if key == "modelspace" or key.startswith("modelspace.")
        ]
        try:
            for module_name, attr, name, detail in TRACED:
                original = getattr(sys.modules["modelspace." + module_name], attr)
                wrapper = self._wrap(original, name, detail)
                for module in modules:
                    if getattr(module, attr, None) is original:
                        setattr(module, attr, wrapper)
                        self._saved.append((module, attr, original))
            yield self
        finally:
            for module, attr, original in reversed(self._saved):
                setattr(module, attr, original)
            self._saved.clear()

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, op, detail) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": name, "start": start, "end": end,
                    "parent": parent, "op": op, "detail": detail,
                }) + "\n")


def unit(metric: str) -> str:
    """Unit of a per-layer metric, read from its name."""
    for suffix, name in (("_ms", "ms"), ("_s", "s"), ("_pct", "%"), ("_ratio", "ratio")):
        if metric.endswith(suffix):
            return name
    return "bytes" if metric.endswith(".bytes") else "count"


def _median(values, scale=1.0):
    return statistics.median(values) * scale if values else 0.0


def _mean(values):
    return statistics.mean(values) if values else 0.0


def layer_metrics(spans, ops: int, quadrature_counts) -> dict:
    """Per-layer metrics from the spans of ``ops`` traced operations.

    Counts and self times are per operation.  ``quadrature_counts`` is the
    default sampler's node-count sequence, used to turn a build's
    ``samples_used`` into the nodes it evaluated.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    calls = Counter()
    self_s = defaultdict(float)
    details = defaultdict(list)
    durations = defaultdict(list)  # (name, detail or build degree) -> seconds
    for (name, start, end, _, _, detail), covered in zip(spans, child):
        calls[name] += 1
        self_s[name] += end - start - covered
        if detail is not None:
            details[name].append(detail)
            key = detail[0] if name == "model.build" else detail
            durations[name, key].append(end - start)

    def layer_calls(prefix):
        return sum(v for k, v in calls.items() if k.startswith(prefix + "."))

    def layer_self(prefix):
        return sum(v for k, v in self_s.items() if k.startswith(prefix + "."))

    def nodes(samples_used):
        total = 0
        for count in quadrature_counts:
            total += count
            if count >= samples_used:
                return total
        return total

    samples = [d[1] for d in details["model.build"]]
    evaluated = [nodes(s) for s in samples]
    extracts = calls["extraction.extract"]
    branches = Counter(details["extraction.extract"])
    out = {
        "inner.calls": layer_calls("inner") / ops,
        "inner.self_s": layer_self("inner") / ops,
        "hardy.circle_nodes.calls": calls["hardy.circle_nodes"] / ops,
        "hardy.self_s": layer_self("hardy") / ops,
        "model.build.calls": calls["model.build"] / ops,
        "model.build.self_s": self_s["model.build"] / ops,
        "model.build.d2_ms": _median(durations["model.build", 2], 1e3),
        "model.build.d8_ms": _median(durations["model.build", 8], 1e3),
        "model.build.d16_ms": _median(durations["model.build", 16], 1e3),
        "model.quadrature_nodes": _mean(evaluated),
        "model.quadrature_useful_ratio": sum(samples) / sum(evaluated) if evaluated else 0.0,
        "model.oracle.calls": calls["model.oracle"] / ops,
        "model.oracle.self_s": self_s["model.oracle"] / ops,
        "model.oracle.trunc_mean": _mean(details["model.oracle"]),
        "calculus.apply.calls": calls["calculus.apply"] / ops,
        "calculus.apply.self_s": self_s["calculus.apply"] / ops,
        "calculus.check_multiplicativity.self_s": self_s["calculus.check_multiplicativity"] / ops,
        "calculus.check_contractivity.self_s": self_s["calculus.check_contractivity"] / ops,
        "calculus.operator_norm.calls": calls["calculus.operator_norm"] / ops,
        "extraction.extract.calls": extracts / ops,
        "extraction.extract.self_s": self_s["extraction.extract"] / ops,
        "extraction.minimal_function.calls": calls["extraction.minimal_function"] / ops,
        "extraction.minimal_function.self_s": self_s["extraction.minimal_function"] / ops,
        "extraction.divisor_kernel.calls": calls["extraction.divisor_kernel"] / ops,
        "extraction.divisor_kernel.self_s": self_s["extraction.divisor_kernel"] / ops,
        "extraction.cyclic_subspace.self_s": self_s["extraction.cyclic_subspace"] / ops,
        "extraction.restrict.calls": calls["extraction.restrict"] / ops,
        "extraction.minimal_per_cert": (
            calls["extraction.minimal_function"] / extracts if extracts else 0.0
        ),
        "extraction.branch.divisor_kernel": branches["divisor_kernel"] / ops,
        "extraction.branch.eigenvector_line": branches["eigenvector_line"] / ops,
        "serialize.to_json.self_s": self_s["serialize.to_json"] / ops,
        "serialize.from_json.self_s": self_s["serialize.from_json"] / ops,
        "serialize.dumps.self_s": self_s["serialize.dumps"] / ops,
        "serialize.parse.self_s": self_s["serialize.parse"] / ops,
        "serialize.bytes": sum(details["serialize.dumps"]) / ops,
        "cli.main.self_s": self_s["cli.main"] / ops,
    }
    for suite in ("lattice", "calculus", "model", "classification", "extraction"):
        out["verify.%s_s" % suite] = _median(durations["verify.run_suite", suite])
    for command in ("inner", "model", "extract"):
        out["cli.%s_ms" % command] = _median(durations["cli.main", command], 1e3)
    return out
