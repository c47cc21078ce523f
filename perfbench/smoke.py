"""Smoke test of the benchmark.  Run from the repository root:

    python3 perfbench/smoke.py

It runs every workload's tiny job list with tracing off and on, and checks
that each run reports every metric named in BENCHMARK.json with its unit,
that no job failed (fail_frac 0 in the result file, whose provenance is
complete), that the recorded references hold the known link and tree
values, and that the harness refuses to run, printing no result, in a
directory holding only BENCHMARK.json and the benchmark's own files.
Exits 1 and lists the problems if any check fails.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
PROVENANCE_KEYS = {"seed", "nproc", "total_ram_mb", "python", "gogtool_commit", "GOGTOOL_THREADS"}
KNOWN = {
    ("links", "desclink_loop33_h14_m1"): {"f_vector": [1470, 73500], "betti": [1, 72031]},
    ("links", "desclink_amalgam33_h9_m1"): {"f_vector": [126, 315], "betti": [1, 190]},
    ("links", "link_amalgam33_h12"): {"f_vectors": [[495, 17325, 5775]]},
    ("trees", "enumerate_loop33_d4"): {"trees": 3882},
    ("trees", "enumerate_bs23_aug_d3"): {"trees": 8031},
    ("trees", "oracle_loop33_h14"): {"f_vectors": [[1470, 73500]]},
}


def harness(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def check_run(workload: str, trace: int, spec: dict) -> list[str]:
    where = f"{workload} --trace {trace}"
    proc = harness(ROOT, "--workload", workload, "--seed", "7", "--seconds", "0.1",
                   "--trace", str(trace), "--smoke")
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}: {proc.stderr[-500:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        problems.append(f"{where}: correct={result['correct']} failed={result['failed']}")
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = result["metrics"]
    if set(got) != set(wanted):
        problems.append(f"{where}: metrics differ: {sorted(set(got) ^ set(wanted))}")
    for name, unit in wanted.items():
        m = got.get(name, {})
        if m.get("unit") != unit or not isinstance(m.get("value"), (int, float)):
            problems.append(f"{where}: bad metric {name}: {m}")
    path = Path(proc.stderr.strip().splitlines()[-1].removeprefix("result file: "))
    record = json.loads(path.read_text())
    if record["fail_frac"] != 0:
        problems.append(f"{where}: fail_frac {record['fail_frac']}")
    if not PROVENANCE_KEYS <= set(record["provenance"]):
        problems.append(f"{where}: provenance lacks {PROVENANCE_KEYS - set(record['provenance'])}")
    if trace and not any(span[3] == "job" for span in record["spans"]):
        problems.append(f"{where}: no job spans recorded")
    return problems


def check_references() -> list[str]:
    refs = json.loads((HERE / "references.json").read_text())
    problems = []
    for (workload, job), want in KNOWN.items():
        ref = refs.get(workload, {}).get(job, {})
        got = ref["links"][0] if "links" in ref else ref
        if any(got.get(k) != v for k, v in want.items()):
            problems.append(f"reference {workload}/{job} is {ref}, expected {want}")
    return problems


def check_bare_directory() -> list[str]:
    """BENCHMARK.json and the benchmark's files alone: no result, nonzero exit."""
    (HERE / ".work").mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare_", dir=HERE / ".work"))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns(".work", "results", "__pycache__"))
        proc = harness(bare, "--workload", "links", "--seed", "1", "--seconds", "1", "--trace", "0")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"bare directory: exit {proc.returncode}, stdout {proc.stdout[:200]!r}"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = check_references() + check_bare_directory()
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            problems += check_run(workload, trace, spec)
    for p in problems:
        print(f"FAIL {p}")
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
