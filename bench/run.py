#!/usr/bin/env python3
"""Benchmark of the certify -> represent -> dilate pipeline.

    python3 bench/run.py --workload small_full --seed 1 --seconds 34 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 34 --trace 1

Run from the root of a checkout; the library is imported from its `src/`.
Each workload runs in a fresh child process (workload.py) under an
address-space ceiling below the machine's RAM, with BLAS threads capped at
two and at the CPU count, so an oversized allocation becomes a counted
MemoryError rather than an out-of-memory kill.

--trace 0 prints the end-to-end metrics of BENCHMARK.json:
  ops_per_s    verified operations per second: pairs per pass over the sum of
               each pair's median operation time, times the verified share
  op_p50_s     median operation time
  op_tail_s    highest percentile of operation time with ten samples beyond it
  cli_p50_s    median time of one `python -m cpdilate.cli` process
  setup_s      median over fresh processes of start until cpdilate is imported
  peak_rss_mb  peak resident memory of the workload process (CLI legs excluded)
--trace 1 prints a per-stage table and the per-layer metrics instead.

Before the result, one JSON line stamps the run (commit, seed, versions,
thread counts) and gives the sample counts, the percentile behind op_tail_s
and failed_frac. The last line is {"correct", "attempted", "failed",
"metrics"}; the exit code is 1 if any operation or CLI leg failed and 2 if
the checkout has no cpdilate sources.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("small_full", "deep_horizon", "wide_certify")
SETUP_REPS = 9
CHILD_BUDGET_S = 170
NPROC = len(os.sched_getaffinity(0))
BLAS_THREADS = min(2, NPROC)
# Address-space ceiling: 7 GiB, kept below physical memory.
AS_CEILING = min(7 * 2**30, int(0.9 * os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")))
READY = "import time; t = time.perf_counter(); import cpdilate.cli; print(time.perf_counter() - t, flush=True)"


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def _ceiling() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (AS_CEILING, AS_CEILING))


def measure_setup(env: dict) -> tuple[list[float], list[float]]:
    """Fresh-process start to 'library imported, ready to issue an operation'."""
    ready, imports = [], []
    for _ in range(SETUP_REPS):
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-c", READY], stdout=subprocess.PIPE, text=True,
            env=env, cwd=ROOT, preexec_fn=_ceiling,
        )
        line = proc.stdout.readline()
        ready.append(time.perf_counter() - start)
        proc.communicate()
        if proc.returncode != 0:
            raise RuntimeError(f"importing cpdilate failed (exit {proc.returncode})")
        imports.append(float(line))
    return ready, imports


def run_child(args, workload: str, env: dict, budget: float) -> dict:
    """Run workload.py under the ceiling (killed after budget seconds); its record."""
    cmd = [
        sys.executable, str(HERE / "workload.py"), "--workload", workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--ops", str(args.ops),
    ]
    proc = subprocess.run(
        cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT, preexec_fn=_ceiling, timeout=budget
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} child exited with {proc.returncode}")
    return json.loads(proc.stdout)


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without leaving it (None if absent)."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def tail(times: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least ten samples beyond it: (value, percentile, beyond).

    With fewer than eleven samples no percentile qualifies; the minimum is
    reported, with the number of samples actually beyond it.
    """
    ordered = sorted(times)
    n = len(ordered)
    rank = max(n - 11, 0)
    percentile = 100.0 * rank / (n - 1) if n > 1 else 100.0
    return ordered[rank], percentile, n - 1 - rank


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(record: dict, setup: list[float]) -> tuple[dict, dict]:
    ops, legs = record["ops"], record["cli"]
    verified = [o["t"] for o in ops if o["ok"]] or [o["t"] for o in ops]
    value, percentile, beyond = tail(verified)
    metrics = {
        "ops_per_s": _metric(
            record["pairs"] / record["pass_s"] * sum(o["ok"] for o in ops) / len(ops), "1/s"
        ),
        "op_p50_s": _metric(statistics.median(verified), "s"),
        "op_tail_s": _metric(value, "s"),
        "cli_p50_s": _metric(statistics.median(leg["t"] for leg in legs), "s"),
        "setup_s": _metric(statistics.median(setup), "s"),
        "peak_rss_mb": _metric(record["peak_rss_mb"], "MB"),
    }
    detail = {
        "op_samples": len(verified),
        "op_tail_percentile": round(percentile, 2),
        "op_tail_samples_beyond": beyond,
        "cli_samples": len(legs),
        "setup_samples": len(setup),
    }
    return metrics, detail


def per_layer(record: dict, imports: list[float]) -> dict:
    tr = record["trace"]
    table, big, worst = tr["table"], tr["largest"], tr["worst"]
    m = {}
    for stage, row in table.items():
        if stage not in ("op", "cli.main", "chan.decode"):
            m[f"{stage}_s"] = _metric(row["wall_s"], "s")
    n, dim_k = big.get("generators", 0), big.get("dim_k", 0)
    m.update(
        {
            "strongcomm.cert_headroom": _metric(worst["cert_headroom"], "ratio"),
            "prodsys.rep_headroom": _metric(worst["rep_headroom"], "ratio"),
            "dilation.generators": _metric(n, "count"),
            "dilation.dim_k": _metric(dim_k, "count"),
            "dilation.kept_frac": _metric(dim_k / n if n else 0.0, "ratio"),
            "dilation.gram_bytes": _metric(n * n * 16, "B"),
            "dilation.commutant_bytes": _metric(dim_k**4 * 16, "B"),
            "dilation.kept_min": _metric(worst["kept_min"], "1"),
            "dilation.dropped_max": _metric(worst["dropped_max"], "1"),
            "dilation.verify_headroom": _metric(worst["verify_headroom"], "ratio"),
            "dilation.span_dim": _metric(big.get("span_dim", 0), "count"),
            "dilation.closure_dim": _metric(big.get("closure_dim", 0), "count"),
            "cli.import_s": _metric(statistics.median(imports), "s"),
            "cli.overhead_s": _metric(tr["cli_overhead_s"], "s"),
            "chan.decode_s": _metric(tr["cli_decode_s"], "s"),
        }
    )
    for stage, row in table.items():
        m[f"{stage}.peak_alloc_mb"] = _metric(row["peak_mb"], "MB")
    m["trace.op_self_s"] = _metric(table["op"]["self_s"], "s")
    m["trace.overhead_frac"] = _metric(tr["overhead_frac"], "ratio")
    return m


def print_table(workload: str, record: dict) -> None:
    tr = record["trace"]
    big, worst = tr["largest"], tr["worst"]
    print(f"== {workload}: {tr['traced_ops']} traced operations, per operation")
    print(f"{'stage':32} {'calls':>6} {'wall s':>10} {'self s':>10} {'share':>7} {'peak MB':>9}")
    for stage, row in tr["table"].items():
        if row["calls"]:
            print(
                f"{stage:32} {row['calls']:6.2f} {row['wall_s']:10.4f} {row['self_s']:10.4f}"
                f" {row['share']:7.1%} {row['peak_mb']:9.2f}"
            )
    print(
        f"N {big.get('generators', '-')}, dim K {big.get('dim_k', '-')}, "
        f"kept_min {worst['kept_min']:.3e}, dropped_max {worst['dropped_max']:.3e}, "
        f"headroom cert {worst['cert_headroom']:.2e} rep {worst['rep_headroom']:.2e} "
        f"verify {worst['verify_headroom']:.2e}, "
        f"trace overhead {tr['overhead_frac']:+.1%}"
    )
    stage = tr["table"]
    print(
        f"in-process CLI, per invocation: overhead {tr['cli_overhead_s']:.4f} s, "
        f"decode {tr['cli_decode_s']:.4f} s, peak {stage['cli.main']['peak_mb']:.2f} MB"
    )
    if "dim_k" not in big:
        return
    print("| N | dim K | Gram + eigh | lift | verify | minimality |")
    print(
        f"| {big['generators']} | {big['dim_k']} "
        f"| {stage['dilation.space']['wall_s']:.3f} s | {stage['dilation.lift']['wall_s']:.3f} s "
        f"| {stage['dilation.verify']['wall_s']:.3f} s "
        f"| {stage['dilation.minimality']['wall_s']:.3f} s |"
    )


def run_workload(args, workload: str) -> bool:
    started = time.perf_counter()
    env = _child_env()
    setup, imports = measure_setup(env)
    budget = CHILD_BUDGET_S - (time.perf_counter() - started)
    record = run_child(args, workload, env, budget)
    runs = record["ops"] + record["cli"]
    failed = sum(not r["ok"] for r in runs)
    if args.trace:
        metrics, detail = per_layer(record, imports), {}
    else:
        metrics, detail = end_to_end(record, setup)
    header = {
        "workload": workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": git_commit(),
        **record["stamp"],
        "blas_threads": BLAS_THREADS,
        "nproc": NPROC,
        "as_ceiling_gib": round(AS_CEILING / 2**30, 2),
        "failed_frac": failed / len(runs),
        **detail,
        "failures": [r["error"] for r in runs if not r["ok"]][:5],
    }
    print(json.dumps(header))
    if args.trace:
        print_table(workload, record)
    result = {"correct": failed == 0, "attempted": len(runs), "failed": failed, "metrics": metrics}
    print(json.dumps(result), flush=True)
    return failed == 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--ops", type=int, default=0, help="cap on operations (and CLI legs), for smoke runs")
    args = ap.parse_args()
    if not (ROOT / "src" / "cpdilate" / "__init__.py").is_file():
        print(f"no cpdilate sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    ok = all([run_workload(args, name) for name in names])
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
