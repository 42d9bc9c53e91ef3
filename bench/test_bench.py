"""Self-tests of the benchmark: smoke runs, the independent checks, the exit contract.

    PYTHONPATH=src python3 -m pytest bench -q
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run
import workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("name", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_emits_every_metric_with_its_unit(name, trace, section):
    proc = _bench(
        ROOT, "--workload", name, "--seed", "0", "--seconds", "1",
        "--trace", str(trace), "--ops", "1",
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == {m["name"]: m["unit"] for m in SPEC[section]}
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def _verified_corner_pair():
    """Criterion 7's pair, corner collapse / identity, through the pipeline at (3,3)."""
    w = dataclasses.replace(workload.WORKLOADS["small_full"], minimality=False)
    theta, phi = workload._acceptance_pairs(np.random.default_rng(0))[2]
    return w, theta, phi, workload.pipeline(w, theta, phi)


def test_independent_checks_pass_on_a_verified_result():
    w, theta, phi, out = _verified_corner_pair()
    assert workload.problems(w, theta, phi, out, np.random.default_rng(1)) == []


def test_corrupted_certificate_is_counted_as_a_failure():
    # As in acceptance criterion 7, a random unitary replaces the certificate;
    # the library's own (passing) check is left in place, so only the
    # independent recomputation can catch it.
    w, theta, phi, out = _verified_corner_pair()
    z = np.random.default_rng(11).normal(size=(2, 2, 2))
    fake_u, _ = np.linalg.qr(z[0] + 1j * z[1])
    out.cert = dataclasses.replace(out.cert, u=fake_u)
    found = workload.problems(w, theta, phi, out, np.random.default_rng(1))
    assert out.cert_check.passed
    assert any(f.startswith("certificate identity residual") for f in found)


def test_perturbed_alpha_is_counted_as_a_failure():
    w, theta, phi, out = _verified_corner_pair()
    rng = np.random.default_rng(2)
    for mats in out.res.v_blocks.values():
        noise = rng.normal(size=mats[0].shape) + 1j * rng.normal(size=mats[0].shape)
        mats[0] = mats[0] + 1e-4 * noise
    found = workload.problems(w, theta, phi, out, np.random.default_rng(1))
    assert out.ver.passed
    assert any(f.startswith("dilation identity residual") for f in found)


def test_tail_has_ten_samples_beyond_it():
    assert run.tail([float(i) for i in range(25)]) == (14.0, 100.0 * 14 / 24, 10)
    assert run.tail([3.0, 1.0, 2.0]) == (1.0, 0.0, 2)


def test_exits_nonzero_without_the_library_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(tmp_path, "--workload", "small_full", "--seed", "0", "--seconds", "1")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
