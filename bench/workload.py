#!/usr/bin/env python3
"""One benchmark workload, run by run.py in a fresh process.

Closed loop, one operation in flight: an operation takes one generated
commuting pair through the workload's pipeline to a verified result. The loop
cycles over the generated pairs, with CLI legs interleaved, until the time
window is used and every pair has run twice. Outputs are
checked off the timed path by the plain-numpy recomputations in check.py.

Prints one JSON record on stdout for run.py: operation and CLI-leg times with
their outcomes, version stamps and, with --trace 1, per-stage aggregates.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
import tracemalloc
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from cpdilate import chan, cli, dilation, prodsys, strongcomm
from cpdilate.chan import KrausFamily, identity_channel
from cpdilate.prodsys import GridPoint

import check
import spans

ROOT = Path(__file__).resolve().parent.parent
CERT_TOL = 1e-9      # the CLI's default --tol
VERIFY_TOL = 1e-8    # the CLI's default --verify-tol
OP_SHARE = 0.7       # share of the window for operations; CLI legs get the rest
# Every pair runs at least twice. With small_full's eight pairs, two of them
# near-instant, fewer samples would put the percentile behind op_tail_s (ten
# samples beyond it) on those two and make it jump between runs.
MIN_PASSES = 2
MARGIN = (1, 1)
TRACED_CLI_RUNS = 3
CLI_TIMEOUT = 120


# ---------------------------------------------------------------------------
# Inputs, all drawn from the seed.
# ---------------------------------------------------------------------------


def _commuting_unitaries(n: int, count: int, rng: np.random.Generator) -> list[np.ndarray]:
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    basis = q * (np.diag(r) / np.abs(np.diag(r)))
    phases = np.exp(1j * rng.uniform(0, 2 * np.pi, size=(count, n)))
    return [basis @ np.diag(p) @ basis.conj().T for p in phases]


def _mix(unitaries: list[np.ndarray], rng: np.random.Generator) -> KrausFamily:
    """Unital map sum_i p_i U_i . U_i^* with Dirichlet weights."""
    weights = rng.dirichlet(np.ones(len(unitaries)))
    return KrausFamily(
        unitaries[0].shape[0], tuple(np.sqrt(w) * u for w, u in zip(weights, unitaries))
    )


def _mix_conj_pairs(n: int, count: int, rng) -> list:
    pairs = []
    for _ in range(count):
        us = _commuting_unitaries(n, 3, rng)
        pairs.append((_mix(us[:2], rng), KrausFamily(n, (us[2],))))
    return pairs


def _mix_mix_pairs(n: int, length: int, count: int, rng) -> list:
    pairs = []
    for _ in range(count):
        us = _commuting_unitaries(n, 2 * length, rng)
        pairs.append((_mix(us[:length], rng), _mix(us[length:], rng)))
    return pairs


def _acceptance_pairs(rng) -> list:
    """Identity, Z/X, corner collapse/identity, then five seeded mix/conjugation pairs."""
    z = np.diag([1.0, -1.0]).astype(complex)
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    e00 = np.zeros((2, 2), dtype=complex)
    e00[0, 0] = 1.0
    e10 = np.zeros((2, 2), dtype=complex)
    e10[1, 0] = 1.0
    return [
        (identity_channel(2), identity_channel(2)),
        (KrausFamily(2, (z,)), KrausFamily(2, (x,))),
        (KrausFamily(2, (e00, e10)), identity_channel(2)),
    ] + _mix_conj_pairs(2, 5, rng)


@dataclass(frozen=True)
class Workload:
    pairs: Callable[[np.random.Generator], list]
    horizon: tuple[int, int] | None   # None: certify and build the product system only
    minimality: bool = False
    cli: str = "dilate"               # subcommand of the CLI leg, run on the last pair
    cli_horizon: tuple[int, int] | None = None  # horizon of the CLI leg, if not `horizon`

    def cli_args(self, first: str, second: str) -> list[str]:
        if self.cli == "strong-commute":
            return ["strong-commute", first, second]
        hz = [str(v) for v in self.cli_horizon or self.horizon]
        return ["dilate", first, second, "--horizon", *hz, "--margin", *map(str, MARGIN)]


# Sizes keep one operation near a second on a two-CPU machine, so that a run
# of the window has over ten operation samples. minimality_check takes about
# 10 s at dim K = 24, 45 s at 32 and runs out of memory at 128, so the larger
# dilation workload ends at verify_e_dilation, and its CLI leg runs `dilate`
# at dim K = 16, the heaviest that finishes in under two seconds. A lighter leg
# would time mostly interpreter start-up, which is far noisier. There is no
# wide-fiber workload (M_3, where verify_e_dilation is ~85% of an operation):
# its only CLI leg that finishes in time, `prodsys verify` at (4,4), is a third
# start-up, and its median spread across runs up to the 25% bound.
WORKLOADS = {
    "small_full": Workload(_acceptance_pairs, (3, 3), minimality=True),
    "deep_horizon": Workload(lambda rng: _mix_conj_pairs(2, 3, rng), (5, 3), cli_horizon=(3, 3)),
    "wide_certify": Workload(lambda rng: _mix_mix_pairs(32, 8, 2, rng), None, cli="strong-commute"),
}


# ---------------------------------------------------------------------------
# One operation and its checks.
# ---------------------------------------------------------------------------


@dataclass
class Outcome:
    cert: strongcomm.StrongCommutationCertificate
    cert_check: strongcomm.CertificateCheck
    rep: prodsys.RepresentationReport | None = None
    dsp: dilation.DilationSpace | None = None
    res: dilation.EDilationResult | None = None
    ver: dilation.DilationReport | None = None
    mini: dilation.MinimalityReport | None = None


def pipeline(w: Workload, theta: KrausFamily, phi: KrausFamily) -> Outcome:
    """Library calls go through module attributes so that tracing can wrap them."""
    cert = strongcomm.strong_commutation_certificate(theta, phi, CERT_TOL)
    chk = strongcomm.verify_certificate(theta, phi, cert, CERT_TOL)
    system = prodsys.build_product_system(theta, phi, cert, CERT_TOL)
    out = Outcome(cert, chk)
    if w.horizon is None:
        return out
    horizon, margin = GridPoint(*w.horizon), GridPoint(*MARGIN)
    out.rep = prodsys.verify_representation(system, horizon, VERIFY_TOL)
    big, hat = dilation.build_big_space(system, horizon)
    out.dsp = dilation.build_dilation_space(big, hat, margin)
    out.res = dilation.lift_operators(out.dsp, system)
    out.ver = dilation.verify_e_dilation(out.res, theta, phi, margin, VERIFY_TOL)
    if w.minimality:
        out.mini = dilation.minimality_check(out.res)
    return out


def problems(w: Workload, theta, phi, out: Outcome, rng) -> list[str]:
    """Failed library verifications, then failed independent recomputations."""
    found = []
    for name, report in (
        ("verify_certificate", out.cert_check),
        ("verify_representation", out.rep),
        ("verify_e_dilation", out.ver),
        ("minimality_check", out.mini),
    ):
        if report is not None and not report.passed:
            found.append(f"{name} did not pass")
    cert_res = check.certificate_residual(theta.ops, phi.ops, out.cert.u)
    if not cert_res <= check.CHECK_TOL:
        found.append(f"certificate identity residual {cert_res:.3e}")
    if out.res is not None:
        words = {g.key(): mats for g, mats in out.res.v_blocks.items()}
        dil_res = check.dilation_residual(theta.ops, phi.ops, out.dsp.embed_h, words, rng)
        if not dil_res <= check.CHECK_TOL:
            found.append(f"dilation identity residual {dil_res:.3e}")
        want = check.expected_dim_k(theta.dim, len(theta), len(phi), w.horizon)
        if out.dsp.dim_k != want:
            found.append(f"dim K {out.dsp.dim_k} != dim X(horizon) * n = {want}")
    return found


def facts(out: Outcome) -> dict:
    """Sizes, cutoffs and residual/tolerance headroom of one verified operation."""
    chk = out.cert_check
    f = {"cert_headroom": max(chk.unitarity_residual, chk.intertwining_residual) / chk.tol}
    if out.rep is not None:
        r = out.rep
        f["rep_headroom"] = max(
            r.identity_residual, r.homomorphism_residual, r.coisometry_residual
        ) / r.tol
    if out.dsp is not None:
        d, v = out.dsp, out.ver
        f.update(
            generators=d.big.total_dim,
            dim_k=d.dim_k,
            kept_min=d.kept_min,
            dropped_max=d.dropped_max,
            verify_headroom=max(
                v.isometry_residual, v.coisometry_residual, v.dilation_residual,
                v.semigroup_residual, v.multiplicativity_residual,
            ) / v.tol,
        )
    if out.mini is not None:
        f.update(span_dim=out.mini.span_dim, closure_dim=out.mini.closure_dim)
    return f


def run_op(w: Workload, index: int, pair, rng, tracer: spans.Tracer | None = None) -> dict:
    theta, phi = pair
    span = tracer.span("op") if tracer else contextlib.nullcontext()
    start = time.perf_counter()
    try:
        with span:
            out = pipeline(w, theta, phi)
    except Exception as exc:  # any raise, MemoryError included, is a counted failure
        elapsed = time.perf_counter() - start
        traceback.print_exc()
        return {"pair": index, "t": elapsed, "ok": False, "error": repr(exc)[:300]}
    elapsed = time.perf_counter() - start
    found = problems(w, theta, phi, out, rng)
    return {
        "pair": index, "t": elapsed, "ok": not found,
        "error": "; ".join(found) or None, "facts": facts(out),
    }


def run_pass(w, pairs, max_ops: int, rng, tracer=None) -> list[dict]:
    """One operation per pair, in order (only the first max_ops when that is set)."""
    records = []
    for index, pair in enumerate(pairs[: max_ops or None]):
        if tracer:
            tracer.op += 1
        records.append(run_op(w, index, pair, rng, tracer))
    return records


def pass_time(records: list[dict]) -> float:
    """Time of one pass: the sum over pairs of each pair's median operation time.

    A burst of slowness on a shared machine moves this less than a mean would.
    """
    by_pair: dict[int, list[float]] = {}
    for r in records:
        by_pair.setdefault(r["pair"], []).append(r["t"])
    return sum(statistics.median(ts) for ts in by_pair.values())


# ---------------------------------------------------------------------------
# CLI legs.
# ---------------------------------------------------------------------------


def write_pair(directory: Path, pair) -> tuple[str, str]:
    paths = []
    for name, fam in zip(("theta.json", "phi.json"), pair):
        path = directory / name
        path.write_text(json.dumps(chan.channel_to_json(fam)))
        paths.append(str(path))
    return paths[0], paths[1]


def cli_report_problem(w: Workload, pair, code: int, stdout: str) -> str | None:
    if code != 0:
        return f"exit code {code}"
    report = json.loads(stdout)
    if w.cli == "strong-commute":
        u = np.asarray(report["u"], dtype=float)
        res = check.certificate_residual(pair[0].ops, pair[1].ops, u[..., 0] + 1j * u[..., 1])
        return None if res <= check.CHECK_TOL else f"certificate identity residual {res:.3e}"
    if not report.get("passed"):
        return "report did not pass"
    if w.cli == "dilate":
        theta, phi = pair
        want = check.expected_dim_k(theta.dim, len(theta), len(phi), w.cli_horizon or w.horizon)
        if report["dimK"] != want:
            return f"dimK {report['dimK']} != {want}"
    return None


def run_cli_leg(w: Workload, pair, files) -> dict:
    """A fresh `python -m cpdilate.cli` process on one pair's files."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "cpdilate.cli", *w.cli_args(*files)],
        capture_output=True, text=True, timeout=CLI_TIMEOUT, cwd=ROOT,
    )
    elapsed = time.perf_counter() - start
    problem = cli_report_problem(w, pair, proc.returncode, proc.stdout)
    if problem:
        sys.stderr.write(proc.stderr)
    return {"t": elapsed, "ok": problem is None, "error": problem}


def closed_loop(w, pairs, files, window: float, max_ops: int, rng) -> tuple[list, list]:
    """Operations cycle over the pairs; after each one, CLI legs run until they
    have had their share of the time, so that both sample the whole window
    evenly. The loop ends at the first operation past the window, once every
    pair has run MIN_PASSES times (once, in a smoke run capped by max_ops)."""
    todo = pairs[: max_ops or None]
    ops: list[dict] = []
    legs: list[dict] = []
    start = time.perf_counter()
    while True:
        index = len(ops) % len(todo)
        ops.append(run_op(w, index, todo[index], rng))
        op_time = sum(o["t"] for o in ops)
        while not legs or sum(leg["t"] for leg in legs) * OP_SHARE < op_time * (1 - OP_SHARE):
            legs.append(run_cli_leg(w, pairs[-1], files))
            if max_ops:
                break
        passes = 1 if max_ops else MIN_PASSES
        if len(ops) >= passes * len(todo) and (max_ops or time.perf_counter() - start >= window):
            return ops, legs


def cli_in_process(w: Workload, pair, files) -> dict:
    buf = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main(w.cli_args(*files))
    except Exception as exc:  # counted like a raise inside an operation
        traceback.print_exc()
        return {"t": time.perf_counter() - start, "ok": False, "error": repr(exc)[:300]}
    elapsed = time.perf_counter() - start
    problem = cli_report_problem(w, pair, code, buf.getvalue())
    return {"t": elapsed, "ok": problem is None, "error": problem}


# ---------------------------------------------------------------------------
# Traced run: per-stage aggregates.
# ---------------------------------------------------------------------------


def stage_table(tracer: spans.Tracer, alloc: spans.Tracer) -> dict:
    """Per stage: calls, wall and self time per operation, share of op time, peak MB."""
    ops = spans.per_op(tracer.spans)
    n = len(ops)
    op_time = sum(rows["op"]["total"] for rows in ops.values())
    peaks = spans.per_op(alloc.spans)
    table = {}
    for name in ["op", *spans.STAGES]:
        rows = [r[name] for r in ops.values() if name in r]
        peak = max((r[name]["peak_mb"] for r in peaks.values() if name in r), default=0.0)
        table[name] = {
            "calls": sum(r["calls"] for r in rows) / n,
            "wall_s": sum(r["total"] for r in rows) / n,
            "self_s": sum(r["self"] for r in rows) / n,
            "share": sum(r["self"] for r in rows) / op_time,
            "peak_mb": peak,
        }
    return table


def cli_split(cli_tracer: spans.Tracer) -> tuple[float, float]:
    """Median over in-process CLI runs of (overhead, decode) seconds.

    Overhead is cli.main minus the library pipeline it calls: its self time
    plus decoding the input files.
    """
    runs = spans.per_op(cli_tracer.spans).values()
    overhead = [r["cli.main"]["self"] + r.get("chan.decode", {}).get("total", 0.0) for r in runs]
    decode = [r.get("chan.decode", {}).get("total", 0.0) for r in runs]
    return statistics.median(overhead), statistics.median(decode)


def traced_run(w, pairs, files, window, max_ops, rng) -> tuple[list, list, dict]:
    # Untraced and traced passes alternate, so drift hits both sides alike.
    untraced, traced = [], []
    tracer = spans.Tracer()
    start = time.perf_counter()
    while not traced or (not max_ops and time.perf_counter() - start < window):
        untraced += run_pass(w, pairs, max_ops, rng)
        with spans.instrument(tracer):
            traced += run_pass(w, pairs, max_ops, rng, tracer)
    overhead_frac = pass_time(traced) / pass_time(untraced) - 1

    # CLI split, traced in-process on the CLI leg's files.
    cli_tracer = spans.Tracer()
    cli_runs = []
    with spans.instrument(cli_tracer):
        for _ in range(max_ops or TRACED_CLI_RUNS):
            cli_tracer.op += 1
            cli_runs.append(cli_in_process(w, pairs[-1], files))
    overhead, decode = cli_split(cli_tracer)

    # Allocation pass on its own, so tracemalloc does not distort the spans above.
    slowest = max(traced, key=lambda r: r["t"])["pair"]
    alloc = spans.Tracer(alloc=True)
    tracemalloc.start()
    try:
        with spans.instrument(alloc):
            alloc.op = 0
            alloc_op = run_op(w, slowest, pairs[slowest], rng, alloc)
            alloc.op = 1
            alloc_cli = cli_in_process(w, pairs[-1], files)
    finally:
        tracemalloc.stop()

    op_facts = [r["facts"] for r in traced if r.get("facts")]
    largest = max(op_facts, key=lambda f: f.get("generators", 0))
    summary = {
        "table": stage_table(tracer, alloc),
        "largest": largest,
        "worst": {
            key: max(f.get(key, 0.0) for f in op_facts)
            for key in ("cert_headroom", "rep_headroom", "verify_headroom", "dropped_max")
        }
        | {"kept_min": min((f["kept_min"] for f in op_facts if "kept_min" in f), default=0.0)},
        "cli_overhead_s": overhead,
        "cli_decode_s": decode,
        "overhead_frac": overhead_frac,
        "traced_ops": len(traced),
    }
    return untraced + traced + [alloc_op], cli_runs + [alloc_cli], summary


# ---------------------------------------------------------------------------


def stamp() -> dict:
    blas = {}
    with contextlib.suppress(TypeError, KeyError):  # show_config(mode=) needs numpy >= 1.26
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--ops", type=int, default=0, help="cap on operations (and CLI legs); 0 = none")
    args = ap.parse_args()

    w = WORKLOADS[args.workload]
    rng = np.random.default_rng(args.seed)
    pairs = w.pairs(rng)
    tmp_root = ROOT / ".bench_tmp"
    tmp_root.mkdir(exist_ok=True)
    summary = None
    with tempfile.TemporaryDirectory(dir=tmp_root) as tmp:
        files = write_pair(Path(tmp), pairs[-1])
        pipeline(w, *pairs[-1])  # warm-up: first calls into BLAS/LAPACK, untimed
        if args.trace:
            ops, legs, summary = traced_run(w, pairs, files, args.seconds, args.ops, rng)
        else:
            ops, legs = closed_loop(w, pairs, files, args.seconds, args.ops, rng)
    with contextlib.suppress(OSError):
        tmp_root.rmdir()
    record = {
        "ops": ops, "cli": legs, "pass_s": pass_time(ops), "pairs": len(pairs[: args.ops or None]),
        # This process alone: CLI legs are children and are not counted.
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "stamp": stamp(), "trace": summary,
    }
    json.dump(record, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
