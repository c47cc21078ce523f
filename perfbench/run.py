"""Benchmark harness for gogtool.

Run from the root of a checkout:

    python3 perfbench/run.py --workload links --seed 1 --seconds 35 --trace 0

Each workload runs in fresh single-threaded Python processes with
``GOGTOOL_THREADS`` unset: several set-up probes, then one worker that
times passes over the job list and checks every output.  Times are paced
(``pace.py``): corrected for the core's speed drift.  The last stdout
line is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics`` (end-to-end metrics with ``--trace 0``, per-layer metrics with
``--trace 1``).  A result file with provenance and per-job times goes to
``perfbench/results/``.  ``--smoke`` runs the tiny job lists;
``--record-references`` rewrites ``perfbench/references.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from pace import paced

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
SETUP_PROBES = 11
WORKER_TIMEOUT_S = 170
RECORD_TIMEOUT_S = 900


def worker_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "GOGTOOL_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_worker(deadline: float, *args: str) -> dict:
    """Run worker.py to completion (killed at the deadline) and return the
    JSON object on its last stdout line."""
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    proc = subprocess.run(
        cmd,
        cwd=ROOT,
        env=worker_env(),
        capture_output=True,
        text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker failed ({proc.returncode}): {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def provenance(seed: int) -> dict:
    sources = sorted((SRC / "gogtool").glob("*.py"))
    digest = hashlib.sha256()
    for path in sources:
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        git = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
        commit = git.stdout.strip() or None
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "total_ram_mb": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**20,
        "python": sys.version,
        "platform": platform.platform(),
        "gogtool_commit": commit,
        "gogtool_sources_sha256": digest.hexdigest(),
        # as set for the harness; workers always run with it unset
        "GOGTOOL_THREADS": os.environ.get("GOGTOOL_THREADS"),
    }


def end_to_end(passes: list[dict], setup_samples: list[float], peak_rss_mb: float) -> dict:
    job_medians = {
        name: statistics.median(p["jobs"][name] for p in passes) for name in passes[0]["jobs"]
    }
    return {
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "slowest_job_s": max(job_medians.values()),
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": peak_rss_mb,
    }


def with_units(values: dict, metrics: list[dict]) -> dict:
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metrics}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=35.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny job lists")
    p.add_argument("--record-references", action="store_true")
    args = p.parse_args(argv)

    if not (SRC / "gogtool" / "__init__.py").is_file():
        print(f"error: no gogtool sources under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    if args.record_references:
        run_worker(time.monotonic() + RECORD_TIMEOUT_S, "--record")
        return 0
    if args.workload is None:
        p.error("--workload is required")

    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--size", "smoke" if args.smoke else "full"]
    deadline = time.monotonic() + WORKER_TIMEOUT_S
    probes = 0 if args.trace else SETUP_PROBES
    try:
        # set-up probes before and after the measuring worker, so they
        # sample the machine over the whole run
        setups = [
            run_worker(deadline, *common, "--setup-only")["setup"] for _ in range(probes // 2)
        ]
        result = run_worker(
            deadline, *common, "--seconds", str(args.seconds), "--trace", str(args.trace)
        )
        setups += [
            run_worker(deadline, *common, "--setup-only")["setup"]
            for _ in range(probes - probes // 2)
        ]
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    setup_samples = [paced(st) for st in setups]

    passes = result["passes"]
    attempted = sum(len(p["jobs"]) for p in passes)
    failed = sum(len(p["failures"]) for p in passes)
    if args.trace:
        metrics = with_units(result["layers"], spec["per_layer"])
    else:
        values = end_to_end(passes, setup_samples, result["peak_rss_mb"])
        metrics = with_units(values, spec["end_to_end"])
    record = {
        "workload": args.workload,
        "trace": args.trace,
        "smoke": args.smoke,
        "seconds": args.seconds,
        "provenance": provenance(args.seed),
        "fail_frac": failed / attempted,
        "setup_samples_s": setup_samples,
        "raw_setup_samples_s": [st["wall_s"] for st in setups],
        "worker_setup_s": result.get("setup", {}).get("wall_s"),
        "best_probe_s": result["best_probe_s"],
        "passes": passes,
        "metrics": metrics,
        "missing_wraps": result.get("missing_wraps", []),
        "spans": result.get("spans", []),
    }
    outdir = HERE / "results"
    outdir.mkdir(exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    name = f"{args.workload}_seed{args.seed}_trace{args.trace}_{stamp}_{os.getpid()}.json"
    (outdir / name).write_text(json.dumps(record) + "\n")
    for pass_ in passes:
        for f in pass_["failures"]:
            print(f"FAILED {f['job']}: {'; '.join(f['errors'])}", file=sys.stderr)
    print(f"result file: {outdir / name}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
