"""The three workloads: their inputs, fixed job lists and output checks.

Importing this module imports gogtool, so the worker times the import as
part of set-up.  Jobs call gogtool through module attributes
(``cli.main``, ``patches.tree_union``) so the tracer's wrappers see them.
Jobs go through ``cli.main`` where a subcommand exists; unions and
intersections, the oracle link, lemma checks, homology of generated
complexes and the amalgam(3,3) h12 link are library calls.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import shutil
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from gogtool import cli, count_algebra, gates, model, patches, simplicial, stein_farley

INPUTS = Path(__file__).resolve().parent / "inputs"
WORKLOADS = ("links", "trees", "complexes")
SIZES = ("full", "smoke")

# crit 06's mix, stratified: every cell of the grid gets the same number of
# complexes, so the seed moves only the random edges and drops
VERTICES = (6, 7, 8, 9, 10, 11, 12)
DENSITIES = (0.35, 0.5, 0.65)
GROUNDS = (3, 4, 5)
DROPS = (0.0, 0.15)
LEMMA_MK = ((1, 1), (2, 1), (2, 2), (3, 1))


@dataclass
class Job:
    """``run`` is timed; ``summarize`` and ``check`` run untimed after it.

    ``summarize`` returns the outputs compared with the recorded
    references (keys starting with ``_`` are bookkeeping, never compared).
    ``ref_keys`` names the summary keys that do not depend on the seed;
    None means all of them.
    """

    name: str
    run: Callable[[dict], object]
    summarize: Callable[[object], dict]
    check: Callable[[object], list[str]] = lambda out: []
    ref_keys: tuple[str, ...] | None = None


@dataclass(frozen=True)
class System:
    g: object
    gs: object
    t0: object
    table: object
    base: object


def load_system(name: str) -> System:
    """Parse, resolve gates, build the base tree and the caret table the
    way ``gogtool`` subcommands do for a file without gate flags."""
    doc = model.parse_document((INPUTS / f"{name}.gog").read_text())
    g = doc.graph
    gs = gates.GateSystem(g, doc.gates) if doc.gates else gates.default_gates(g, doc.order)
    t0 = patches.base_tree(g, gs, g.vertices[0])
    table = patches.caret_table(g, gs)
    return System(g, gs, t0, table, t0.counts())


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def json_digest(obj) -> str:
    return sha256(json.dumps(obj, sort_keys=True).encode())


def euler_errors(label: str, f_vector, betti) -> list[str]:
    """Euler-Poincare: sum (-1)^i f_i = sum (-1)^i b_i whenever every
    homology group up to the dimension was computed."""
    if betti is None or len(betti) != len(f_vector):
        return []
    chi_f = sum((-1) ** i * n for i, n in enumerate(f_vector))
    chi_b = sum((-1) ** i * b for i, b in enumerate(betti))
    if chi_f == chi_b:
        return []
    return [f"{label}: Euler-Poincare fails, f={list(f_vector)} betti={list(betti)}"]


# -- jobs through the command line ----------------------------------------


class _Discard(io.TextIOBase):
    """Stdout of CLI jobs: accepted and dropped, the artifacts are on disk."""

    def write(self, text: str) -> int:
        return len(text)


class Scratch:
    """A fresh directory for CLI artifacts under ``parent``, inside the
    checkout, removed on exit."""

    def __init__(self, parent: Path, prefix: str):
        parent.mkdir(exist_ok=True)
        self.root = Path(tempfile.mkdtemp(prefix=prefix, dir=parent))
        self._n = 0

    def new_dir(self, name: str) -> Path:
        self._n += 1
        return self.root / f"{self._n:05d}_{name}"

    def __enter__(self) -> "Scratch":
        return self

    def __exit__(self, *exc) -> None:
        shutil.rmtree(self.root, ignore_errors=True)


def _artifact_bytes(path: Path) -> bytes:
    data = path.read_bytes()
    if path.name == "desclink.json":
        # elapsed_seconds differs on every run; hash the summary without it
        obj = json.loads(data)
        obj.pop("elapsed_seconds", None)
        data = json.dumps(obj, sort_keys=True).encode()
    return data


def _summarize_cli(out) -> dict:
    code, outdir = out
    files = sorted(outdir.iterdir()) if outdir.is_dir() else []
    summary = {
        "exit": code,
        "artifacts": {f.name: sha256(_artifact_bytes(f)) for f in files},
        "_bytes": sum(f.stat().st_size for f in files),
    }
    names = {f.name for f in files}
    if "desclink.json" in names:
        data = json.loads((outdir / "desclink.json").read_text())
        summary["links"] = [
            {"f_vector": d["f_vector"], "betti": d["betti"]} for d in data["links"]
        ]
    if "enumerate.json" in names:
        summary["trees"] = json.loads((outdir / "enumerate.json").read_text())["total"]
    return summary


def _check_cli(out) -> list[str]:
    code, outdir = out
    errors = [] if code == 0 else [f"exit code {code}"]
    path = outdir / "desclink.json"
    if path.is_file():
        for i, d in enumerate(json.loads(path.read_text())["links"]):
            errors += euler_errors(f"link {i}", d["f_vector"], d["betti"])
    return errors


def cli_job(name: str, scratch: Scratch, *argv: str) -> Job:
    def run(state):
        outdir = scratch.new_dir(name)
        with contextlib.redirect_stdout(_Discard()):
            code = cli.main(["--out", str(outdir), *argv])
        return code, outdir

    return Job(name, run, _summarize_cli, _check_cli)


# -- links ------------------------------------------------------------------


def links_jobs(size: str, seed: int, scratch: Scratch) -> list[Job]:
    del seed  # the inputs are the bundled systems
    amalgam = load_system("amalgam33")
    load_system("loop33")  # the desclink jobs' system, set up as users would
    loop, amal = str(INPUTS / "loop33.gog"), str(INPUTS / "amalgam33.gog")

    def amalgam_h12(state):
        out = []
        for x in stein_farley.sf_vertices_at_height(12, amalgam.table, amalgam.base):
            link = stein_farley.descending_link(x, amalgam.table, amalgam.base)
            out.append((link.f_vector, link.to_json_dict()))
        return out

    jobs = [
        cli_job("desclink_loop33_h10", scratch, "desclink", loop, "--height", "10"),
        cli_job("desclink_loop33_h14_m1", scratch,
                "desclink", loop, "--height", "14", "--m-max", "1"),
        cli_job("desclink_amalgam33_h9_m1", scratch,
                "desclink", amal, "--height", "9", "--m-max", "1"),
        Job(
            "link_amalgam33_h12",
            amalgam_h12,
            lambda out: {
                "f_vectors": [list(f) for f, _ in out],
                "digest": json_digest([d for _, d in out]),
            },
        ),
    ]
    if size == "smoke":
        jobs = [jobs[0], jobs[2]]
    return jobs


# -- trees ------------------------------------------------------------------


def trees_jobs(size: str, seed: int, scratch: Scratch) -> list[Job]:
    loop = load_system("loop33")
    load_system("bs23_aug")
    loop_path, bs_path = str(INPUTS / "loop33.gog"), str(INPUTS / "bs23_aug.gog")
    rng = random.Random(seed)
    n_pairs = 10_000 if size == "full" else 200
    # positions in [0, 1), scaled to the enumeration when the job runs
    draws = [(rng.random(), rng.random()) for _ in range(n_pairs)]
    oracle_height = 14 if size == "full" else 10

    def pairs(state):
        trees = patches.enumerate_admissible(loop.g, loop.gs, loop.t0, 3)
        n = len(trees)
        picked = [(trees[int(u * n)], trees[int(v * n)]) for u, v in draws]
        results = [(patches.tree_union(a, b), patches.tree_intersection(a, b)) for a, b in picked]
        state["sampled"] = list({id(t): t for pair in picked for t in pair}.values())
        return len(trees), picked, results

    def check_pairs(out) -> list[str]:
        _, picked, results = out
        errors = []
        for (a, b), (u, i) in zip(picked, results):
            if not (u.contains(a) and u.contains(b)):
                errors.append("a union does not contain both operands")
            if not (a.contains(i) and b.contains(i)):
                errors.append("an intersection is not contained in both operands")
            if not (u.is_admissible() and i.is_admissible()):
                errors.append("a union or intersection is not admissible")
        return sorted(set(errors))

    def histories(state):
        return [(t, patches.history(t, loop.t0)) for t in state["sampled"]]

    def check_histories(out) -> list[str]:
        bad = sum(
            count_algebra.predict_counts(h, loop.table, loop.base) != t.counts()
            for t, h in out
        )
        return [f"{bad} histories violate the count formula"] if bad else []

    def oracle(state):
        return [
            stein_farley.oracle_descending_link(x, loop.g, loop.gs, loop.t0)
            for x in stein_farley.sf_vertices_at_height(oracle_height, loop.table, loop.base)
        ]

    depth = "4" if size == "full" else "2"
    jobs = [
        cli_job(f"enumerate_loop33_d{depth}", scratch,
                "enumerate", loop_path, "--max-expansions", depth),
    ]
    if size == "full":
        jobs.append(cli_job("enumerate_bs23_aug_d3", scratch,
                            "enumerate", bs_path, "--max-expansions", "3"))
    jobs += [
        Job(
            "union_intersection_loop33_d3",
            pairs,
            lambda out: {"enumerated": out[0], "pairs": len(out[2])},
            check_pairs,
            ref_keys=("enumerated",),
        ),
        Job("history_sampled", histories, lambda out: {"histories": len(out)},
            check_histories, ref_keys=()),
        Job(
            f"oracle_loop33_h{oracle_height}",
            oracle,
            lambda out: {
                "f_vectors": [list(link.f_vector) for link in out],
                "digest": json_digest([link.to_json_dict() for link in out]),
            },
        ),
    ]
    return jobs


# -- complexes --------------------------------------------------------------


def complexes_jobs(size: str, seed: int, scratch: Scratch) -> list[Job]:
    """One job per sweep over the mix, each sweep one fresh complex per cell.
    Sweeps of equal make-up keep the slowest job from hanging on one
    heavy-tailed complex the way a job per vertex count would."""
    del scratch
    rng = random.Random(seed)
    sweeps = 4 if size == "full" else 1
    sizes = VERTICES if size == "full" else VERTICES[:2]
    inputs = [
        [
            (
                simplicial.random_complex(
                    rng.randrange(2**31), n, density, ground=ground, drop=drop
                ),
                tuple(range(ground)),
            )
            for n in sizes
            for density in DENSITIES
            for ground in GROUNDS
            for drop in DROPS
        ]
        for _ in range(sweeps)
    ]

    def run(complexes):
        out = []
        for cx, sigma in complexes:
            bounds = [
                simplicial.lemma_connectivity_bound(cx, sigma, m, k).bound
                for m, k in LEMMA_MK
            ]
            out.append((cx, bounds, simplicial.homology(cx, max_dim=3)))
        return out

    def check(out) -> list[str]:
        errors = []
        for idx, (cx, bounds, rep) in enumerate(out):
            label = f"complex {idx} ({len(cx.vertices)} vertices)"
            betti, torsion = rep.betti, rep.torsion
            for b in bounds:
                if b is None or b < 0:
                    continue
                # a certified bound b means b-connected: H_0 = Z, H_i = 0 for i <= b
                if betti[0] != 1 or any(
                    i < len(betti) and (betti[i] or torsion[i]) for i in range(1, b + 1)
                ):
                    errors.append(f"{label}: bound {b} but homology {betti} {torsion}")
            errors += euler_errors(label, cx.f_vector(), betti)
        return errors

    def summarize(out) -> dict:
        return {
            "complexes": len(out),
            "certified": sum(b is not None for _, bs, _ in out for b in bs),
        }

    return [
        Job(f"complexes_sweep{i + 1}", lambda state, c=c: run(c), summarize, check, ref_keys=())
        for i, c in enumerate(inputs)
    ]


JOB_LISTS = {"links": links_jobs, "trees": trees_jobs, "complexes": complexes_jobs}


def setup(workload: str, size: str, seed: int, scratch: Scratch) -> list[Job]:
    """Set up a workload: its systems (parse, gates, base tree, caret
    table) and its seeded inputs.  Returns the job list."""
    return JOB_LISTS[workload](size, seed, scratch)
