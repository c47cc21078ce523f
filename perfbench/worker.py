"""One workload in one fresh process: set-up, timed passes, output checks.

Run by ``run.py``; prints one JSON object on its last stdout line.
``--setup-only`` times set-up and exits; ``--record`` writes the
correctness references of every workload and size instead of measuring.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

from pace import Pacer, paced

HERE = Path(__file__).resolve().parent
REFERENCES = HERE / "references.json"
WORK = HERE / ".work"
# spans of one traced pass written to the result file; beyond this only totals
SPAN_LIMIT = 50_000


def summarize(job, out) -> tuple[dict, list]:
    """The job's summary as JSON values, and the keys kept as references."""
    summary = json.loads(json.dumps(job.summarize(out)))
    keys = job.ref_keys
    if keys is None:
        keys = [k for k in summary if not k.startswith("_")]
    return summary, list(keys)


def check_job(job, out, refs: dict) -> tuple[dict, list[str]]:
    """Untimed: summary, theorem checks, and comparison with the reference."""
    summary, keys = summarize(job, out)
    errors = list(job.check(out))
    if keys:
        ref = refs.get(job.name)
        if ref is None:
            errors.append("no reference recorded for this job")
        else:
            errors += [
                f"{k}: got {summary.get(k)!r}, reference {ref.get(k)!r}"
                for k in keys
                if summary.get(k) != ref.get(k)
            ]
    return summary, errors


def run_pass(jobs, refs: dict, pacer: Pacer, tracer=None) -> dict:
    """One pass over the job list.  Each job is timed alone, with the speed
    probes running, and checked right after, outside its timing, so
    outputs are freed job by job."""
    gc.collect()
    state: dict = {}
    times, failures = {}, []
    for job in jobs:
        if tracer is not None:
            tracer.job = job.name
            tracer.enter("job")
        pacer.begin()
        try:
            out = job.run(state)
            error = None
        except Exception as exc:  # a failed job is counted, the pass goes on
            error = f"{type(exc).__name__}: {exc}"
        times[job.name] = pacer.end()
        if tracer is not None:
            tracer.exit()
            tracer.job = None
        if error is None:
            try:
                summary, errors = check_job(job, out, refs)
            except Exception as exc:
                summary, errors = {}, [f"check raised {type(exc).__name__}: {exc}"]
            if tracer is not None:
                tracer.counters["artifact_bytes"] += summary.get("_bytes", 0)
            del out
        else:
            errors = [error]
        if errors:
            failures.append({"job": job.name, "errors": errors[:5]})
    return {"stretches": times, "failures": failures}


def pace_passes(passes: list[dict]) -> None:
    """Per job and pass: paced seconds in ``jobs``, wall seconds in
    ``raw_jobs``, and their sums over the pass."""
    for p in passes:
        p["jobs"] = {name: paced(st) for name, st in p["stretches"].items()}
        p["raw_jobs"] = {name: st["wall_s"] for name, st in p["stretches"].items()}
        p["wall_s"] = sum(p["jobs"].values())
        p["raw_wall_s"] = sum(p["raw_jobs"].values())


def layer_metrics(totals: dict, counters: Counter) -> dict:
    """Per-layer metrics from span totals {name: (calls, inclusive s, self s)}."""

    def calls(name):
        return totals.get(name, (0, 0.0, 0.0))[0]

    def incl(*names):
        return sum(totals.get(n, (0, 0.0, 0.0))[1] for n in names)

    def self_s(name):
        return totals.get(name, (0, 0.0, 0.0))[2]

    def ratio(a, b):
        return a / b if b else 0.0

    enum_s = incl("patches.enumerate_admissible")
    link_s = incl("stein_farley.descending_link")
    lemma_calls = calls("simplicial.lemma_connectivity_bound")
    return {
        "cli.main_s": incl("cli.main"),
        "cli.self_s": self_s("cli.main"),
        "cli.artifact_bytes": counters["artifact_bytes"],
        "model.parse_s": incl("model.parse_document"),
        "gates.resolve_s": incl("gates.default_gates", "gates.is_admissible"),
        "patches.base_tree_s": incl("patches.base_tree"),
        "patches.caret_table_s": incl("patches.caret_table"),
        "patches.enumerate_s": enum_s,
        "patches.trees": counters["trees"],
        "patches.trees_per_s": ratio(counters["trees"], enum_s),
        "patches.union_s": incl("patches.tree_union"),
        "patches.intersection_s": incl("patches.tree_intersection"),
        "patches.pairs": calls("patches.tree_union"),
        "patches.history_s": incl("patches.history"),
        "count_algebra.realizable_calls": calls("count_algebra.realizable"),
        "count_algebra.realizable_s": incl("count_algebra.realizable"),
        "count_algebra.thresholds_calls": calls("count_algebra.thresholds"),
        "count_algebra.thresholds_s": incl("count_algebra.thresholds"),
        "stein_farley.sf_vertices_s": incl("stein_farley.sf_vertices_at_height"),
        "stein_farley.link_s": link_s,
        "stein_farley.link_faces": counters["link_faces"],
        "stein_farley.faces_per_s": ratio(counters["link_faces"], link_s),
        "stein_farley.report_self_s": self_s("stein_farley.link_connectivity_report"),
        "stein_farley.to_json_s": incl("stein_farley.to_json_dict"),
        "stein_farley.oracle_s": incl("stein_farley.oracle_descending_link"),
        "simplicial.lemma_s": incl("simplicial.lemma_connectivity_bound"),
        "simplicial.lemma_calls": lemma_calls,
        "simplicial.lemma_bound_ratio": ratio(counters["lemma_certified"], lemma_calls),
        "simplicial.lemma_skipped": counters["lemma_skipped"],
        "simplicial.homology_s": incl("simplicial.homology"),
        "simplicial.homology_calls": calls("simplicial.homology"),
        "simplicial.homology_faces": counters["homology_faces"],
        "simplicial.random_complex_s": incl("simplicial.random_complex"),
    }


def merge(a: tuple[dict, Counter], b: tuple[dict, Counter]) -> tuple[dict, Counter]:
    totals = dict(a[0])
    for name, v in b[0].items():
        w = totals.get(name, (0, 0.0, 0.0))
        totals[name] = tuple(x + y for x, y in zip(w, v))
    return totals, a[1] + b[1]


def passes_for(seconds: float, jobs, refs, pacer: Pacer, tracer=None) -> list[dict]:
    """At least one pass, then more while another pass as long as the
    longest so far still ends within ``seconds``; a slower machine runs
    fewer passes, not a longer measurement."""
    out, start, longest = [], time.perf_counter(), 0.0
    while not out or time.perf_counter() - start + longest <= seconds:
        began = time.perf_counter()
        out.append(run_pass(jobs, refs, pacer, tracer))
        longest = max(longest, time.perf_counter() - began)
        if tracer is not None:
            out[-1]["trace"] = tracer.snapshot()
            out[-1]["spans"] = list(tracer.spans[:SPAN_LIMIT])
            tracer.reset()
    return out


def measure(args) -> dict:
    pacer = Pacer()
    pacer.begin()
    import workloads  # imports gogtool: part of a fresh process's set-up

    with workloads.Scratch(WORK, "run_") as work:
        if args.trace:
            pacer.end()
            return measure_traced(args, workloads, work, pacer)
        jobs = workloads.setup(args.workload, args.size, args.seed, work)
        setup = pacer.end()
        if args.setup_only:
            return {"setup": setup, "best_probe_s": pacer.best}
        refs = json.loads(REFERENCES.read_text())[args.workload]
        passes = passes_for(args.seconds, jobs, refs, pacer)
        pace_passes(passes)
        return {
            "setup": setup,
            "best_probe_s": pacer.best,
            "passes": passes,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }


def measure_traced(args, workloads, work, pacer: Pacer) -> dict:
    """Untraced passes for half the time, then traced passes for the rest;
    per-layer numbers cover one traced set-up plus the median traced pass."""
    from spans import Tracer

    tracer = Tracer()
    tracer.install()
    tracer.job = "setup"
    tracer.enter("job")
    jobs = workloads.setup(args.workload, args.size, args.seed, work)
    tracer.exit()
    tracer.job = None
    setup_trace, setup_spans = tracer.snapshot(), list(tracer.spans)
    tracer.reset()
    tracer.uninstall()

    refs = json.loads(REFERENCES.read_text())[args.workload]
    plain = passes_for(args.seconds / 2, jobs, refs, pacer)
    tracer.install()
    traced = passes_for(args.seconds / 2, jobs, refs, pacer, tracer)
    tracer.uninstall()
    pace_passes(plain + traced)

    per_pass = [layer_metrics(*merge(setup_trace, p.pop("trace"))) for p in traced]
    metrics = {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}
    metrics["trace_overhead_s"] = statistics.median(
        p["wall_s"] for p in traced
    ) - statistics.median(p["wall_s"] for p in plain)
    return {
        "best_probe_s": pacer.best,
        "passes": plain + traced,
        "layers": metrics,
        "spans": setup_spans + traced[0].pop("spans"),
        "missing_wraps": tracer.missing,
    }


def record() -> dict:
    """Record the seed-independent outputs of every job as references.
    Refuses to record outputs that fail their theorem checks."""
    import workloads

    refs: dict = {}
    for workload in workloads.WORKLOADS:
        refs[workload] = {}
        for size in workloads.SIZES:
            with workloads.Scratch(WORK, "record_") as work:
                state: dict = {}
                for job in workloads.setup(workload, size, 0, work):
                    out = job.run(state)
                    errors = job.check(out)
                    if errors:
                        raise SystemExit(f"{workload}/{job.name}: {errors[:3]}")
                    summary, keys = summarize(job, out)
                    if keys:
                        refs[workload][job.name] = {k: summary[k] for k in keys}
    return refs


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--size", default="full")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--record", action="store_true")
    args = p.parse_args(argv)
    if args.record:
        refs = record()
        REFERENCES.write_text(json.dumps(refs, indent=2, sort_keys=True) + "\n")
        print(json.dumps({w: sorted(jobs) for w, jobs in refs.items()}))
        return 0
    print(json.dumps(measure(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
