"""Quick tests of the benchmark itself: ``python3 -m pytest bench -q``."""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys

import pytest

import run

sys.path.insert(0, str(run.ROOT / "src"))

import workloads  # noqa: E402  (needs the sources on the path)

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(workload, trace, seed=3):
    """stdout lines of a run that makes one operation per measured phase."""
    proc = subprocess.run(
        [sys.executable, str(run.ROOT / "bench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, check=True, timeout=180,
    )
    return proc.stdout.splitlines()


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", run.NAMES)
def test_every_metric_named_in_benchmark_json_is_emitted(workload, trace, section):
    result = json.loads(_run(workload, trace)[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected


def _fail_ratio(workload, cases, op=None):
    latencies, failed = run.measure(workload, cases, 0.0, op or workload.run_in_process)
    return failed / len(latencies)


def test_corrupted_expected_output_raises_fail_ratio():
    cli = workloads.CliOneshot(run.ROOT)
    try:
        argv, expected = cli.setup(5)[0]
        assert _fail_ratio(cli, [(argv, expected)]) == 0
        assert _fail_ratio(cli, [(argv, expected.replace(b"]", b"0]", 1))]) > 0
    finally:
        cli.close()

    extract = workloads.ExtractCertify(run.ROOT)
    T, h, eigenvector = extract.setup(5)[0]
    assert _fail_ratio(extract, [(T, h, eigenvector)]) == 0
    assert _fail_ratio(extract, [(T, h, not eigenvector)]) > 0

    model = workloads.ModelBuild(run.ROOT)
    b, other = model.setup(5)[:2]
    assert _fail_ratio(model, [b]) == 0
    assert _fail_ratio(model, [b], op=lambda _: model.run(other)) > 0


def test_verify_digest_matches_cli_stdout():
    seed = 11
    notes = next(line for line in _run("verify-all", 0, seed) if line.startswith("notes "))
    digest = json.loads(notes[len("notes "):])["digests"][str(seed)]
    stdout = subprocess.run(
        [sys.executable, "-m", "modelspace.cli", "verify", "all", "--seed", str(seed)],
        env=run.child_env(), stdout=subprocess.PIPE, check=True, timeout=180,
    ).stdout
    assert digest == hashlib.sha256(stdout).hexdigest()
