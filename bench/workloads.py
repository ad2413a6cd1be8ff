"""The four benchmark workloads.

Each workload turns a seed into a list of cases in ``setup``, runs one
operation per case in ``run`` (the timed part), and checks every output in
``check`` by an independent route.  Operations cycle through the cases.
``run_in_process`` is the operation used by traced runs; only the CLI
workload replaces it, calling ``modelspace.cli.main`` instead of a fresh
interpreter.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import scipy.optimize

# Timed operations call through the package namespace (``ms.``), where a
# traced run rebinds them.
import modelspace as ms
from modelspace import cli, verify

import inputs

DIAGONAL_TOL = 1e-8
NORM_SLACK = 1e-10
ORTHONORMAL_TOL = 1e-10
INVARIANCE_TOL = 1e-8


class Workload:
    name = ""
    tail_percentile = 99.0
    aliases = {}  # generic metric -> this workload's name for it
    warmup = 0  # untimed operations before measuring
    in_children = False  # whether the work runs in child processes

    def __init__(self, root: Path):
        pass

    def setup(self, seed: int) -> list:
        raise NotImplementedError

    def run(self, case):
        raise NotImplementedError

    def run_in_process(self, case):
        return self.run(case)

    def check(self, case, output) -> bool:
        raise NotImplementedError

    def notes(self) -> dict:
        """Extra facts to print with the result."""
        return {}

    def close(self):
        pass


class VerifyAll(Workload):
    """``verify.run_all`` with default case counts, one seed per operation."""

    name = "verify-all"
    aliases = {"op_p50_ms": "verify_all_s, in ms"}
    tail_percentile = 100.0  # only a handful of operations fit in a run

    def __init__(self, root: Path):
        self.digests = {}  # verify seed -> sha256 of the canonical report

    def setup(self, seed):
        return [seed + i for i in range(1000)]

    def notes(self):
        return {"digests": dict(sorted(self.digests.items()))}

    def run(self, seed):
        report = verify.run_all(seed)
        return report, ms.canonical_dumps(report)

    def check(self, seed, output):
        report, text = output
        digest = hashlib.sha256(text.encode()).hexdigest()
        if self.digests.setdefault(seed, digest) != digest:
            return False
        return report["passed"] and all(
            check["passed"] and check["failures"] == 0
            for suite in report["suites"].values()
            for check in suite["checks"].values()
        )


class ModelBuild(Workload):
    """Build a compressed shift, then round-trip it through canonical JSON."""

    name = "model-build"
    aliases = {"op_p50_ms": "model_p50_ms", "op_tail_ms": "model_tail_ms",
               "ops_per_s": "model_ops_per_s"}
    tail_percentile = 95.0  # inside the degree-16 third; p99 swings with machine noise
    warmup = 12

    def setup(self, seed):
        return inputs.model_symbols(seed)

    def run(self, b):
        model = ms.build_model_operator(b)
        back = ms.model_from_json(ms.parse_json(ms.canonical_dumps(ms.model_to_json(model))))
        return model, back

    def check(self, b, output):
        model, back = output
        M = model.matrix
        if not np.array_equal(back.matrix, M) or np.any(np.triu(M, 1) != 0):
            return False
        zeros = np.array(b.blaschke.zeros_with_multiplicity())
        cost = np.abs(np.diag(M)[:, None] - zeros[None, :])
        rows, cols = scipy.optimize.linear_sum_assignment(cost)
        if cost[rows, cols].max() > DIAGONAL_TOL:
            return False
        return np.linalg.norm(M, 2) <= 1.0 + NORM_SLACK


class ExtractCertify(Workload):
    """Extract a certified invariant subspace and serialize the certificate."""

    name = "extract-certify"
    aliases = {"op_p50_ms": "extract_p50_ms", "op_tail_ms": "extract_tail_ms",
               "ops_per_s": "extract_certs_per_s"}
    warmup = 12

    def setup(self, seed):
        return inputs.extract_cases(seed)

    def run(self, case):
        T, h, _ = case
        cert = ms.extract_invariant_subspace(T, h)
        return cert, ms.canonical_dumps(ms.certificate_to_json(cert))

    def check(self, case, output):
        T, _, eigenvector = case
        cert, _ = output
        F = cert.subspace.frame
        n, d = F.shape
        if not 1 <= d <= n - 1:
            return False
        if np.abs(F.conj().T @ F - np.eye(d)).max() > ORTHONORMAL_TOL:
            return False
        if np.linalg.norm(T @ F - F @ (F.conj().T @ T @ F), 2) > INVARIANCE_TOL:
            return False
        return (cert.branch == "eigenvector_line") == eigenvector


class CliOneshot(Workload):
    """One fresh ``python -m modelspace.cli`` process per operation; it finds
    the package through the PYTHONPATH the benchmark sets."""

    name = "cli-oneshot"
    aliases = {"op_p50_ms": "cli_p50_ms", "op_tail_ms": "cli_tail_ms"}
    in_children = True
    tail_percentile = 60.0  # about twelve of the ~30 calls in a run lie beyond it

    def __init__(self, root: Path):
        self.workdir = root / ".bench_tmp" / ("cli-%d" % os.getpid())

    def _write(self, name, obj) -> str:
        path = self.workdir / name
        path.write_text(ms.canonical_dumps(obj), encoding="utf-8")
        return str(path)

    @staticmethod
    def _read(path):
        return ms.parse_json(Path(path).read_text(encoding="utf-8"))

    def setup(self, seed):
        """Write the input files; expected stdout comes from library calls
        on what the files hold."""
        self.workdir.mkdir(parents=True, exist_ok=True)
        cases = []
        for v, draw in enumerate(inputs.cli_inputs(seed)):
            a = self._write("a%d.json" % v, ms.inner_to_json(draw["gcd"][0]))
            b = self._write("b%d.json" % v, ms.inner_to_json(draw["gcd"][1]))
            expected = ms.gcd(ms.inner_from_json(self._read(a)), ms.inner_from_json(self._read(b)))
            cases.append((["inner", "gcd", a, b], ms.inner_to_json(expected)))

            path = self._write("d%d.json" % v, ms.inner_to_json(draw["divisors"]))
            divisors = ms.enumerate_blaschke_divisors(ms.inner_from_json(self._read(path)))
            cases.append((["inner", "divisors", path],
                          {"divisors": [ms.inner_to_json(d) for d in divisors]}))

            path = self._write("m%d.json" % v, ms.inner_to_json(draw["model"]))
            model = ms.build_model_operator(ms.inner_from_json(self._read(path)))
            cases.append((["model", path], ms.model_to_json(model)))

            symbol, h_seed = draw["extract"]
            path = self._write("e%d.json" % v, ms.model_to_json(ms.build_model_operator(symbol)))
            T = ms.model_from_json(self._read(path)).matrix
            # the vector ``extract --random --seed`` draws
            rng = np.random.default_rng(h_seed)
            h = rng.standard_normal(len(T)) + 1j * rng.standard_normal(len(T))
            cert = ms.extract_invariant_subspace(T, h)
            cases.append((["extract", path, "--random", "--seed", str(h_seed)],
                          ms.certificate_to_json(cert)))
        return [(argv, ms.canonical_dumps(expected).encode()) for argv, expected in cases]

    def run(self, case):
        argv, _ = case
        proc = subprocess.run(
            [sys.executable, "-m", "modelspace.cli", *argv],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, check=False,
        )
        return proc.returncode, proc.stdout

    def run_in_process(self, case):
        argv, _ = case
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        return code, out.getvalue().encode()

    def check(self, case, output):
        _, expected = case
        code, stdout = output
        return code == 0 and stdout == expected

    def close(self):
        if self.workdir.exists():
            for path in self.workdir.iterdir():
                path.unlink()
            self.workdir.rmdir()
        with contextlib.suppress(OSError):
            self.workdir.parent.rmdir()  # only when no other run uses it


WORKLOADS = {w.name: w for w in (VerifyAll, ModelBuild, ExtractCertify, CliOneshot)}
