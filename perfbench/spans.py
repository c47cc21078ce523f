"""Span tracer that wraps gogtool's public functions from outside.

Each entry of ``WRAPS`` names a function by the module attribute the
caller looks up (``gogtool.cli.descending_link`` is the name ``cli`` uses,
``gogtool.stein_farley.homology`` the one ``stein_farley`` uses), so a
span sits at every call across a layer boundary without touching the
program.  A span records its name, start, end, parent and job; a layer's
self time is its duration minus the time covered by its child spans.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter, defaultdict

# (module, attribute, span name); "Class.method" attributes wrap methods.
WRAPS = [
    ("gogtool.cli", "main", "cli.main"),
    ("gogtool.cli", "parse_document", "model.parse_document"),
    ("gogtool.model", "parse_document", "model.parse_document"),
    ("gogtool.cli", "default_gates", "gates.default_gates"),
    ("gogtool.gates", "default_gates", "gates.default_gates"),
    ("gogtool.patches", "is_admissible", "gates.is_admissible"),
    ("gogtool.cli", "base_tree", "patches.base_tree"),
    ("gogtool.patches", "base_tree", "patches.base_tree"),
    ("gogtool.cli", "caret_table", "patches.caret_table"),
    ("gogtool.patches", "caret_table", "patches.caret_table"),
    ("gogtool.stein_farley", "caret_table", "patches.caret_table"),
    ("gogtool.cli", "enumerate_admissible", "patches.enumerate_admissible"),
    ("gogtool.patches", "enumerate_admissible", "patches.enumerate_admissible"),
    ("gogtool.stein_farley", "enumerate_admissible", "patches.enumerate_admissible"),
    ("gogtool.patches", "tree_union", "patches.tree_union"),
    ("gogtool.patches", "tree_intersection", "patches.tree_intersection"),
    ("gogtool.patches", "history", "patches.history"),
    ("gogtool.stein_farley", "realizable", "count_algebra.realizable"),
    ("gogtool.cli", "compute_thresholds", "count_algebra.thresholds"),
    ("gogtool.stein_farley", "compute_thresholds", "count_algebra.thresholds"),
    ("gogtool.cli", "sf_vertices_at_height", "stein_farley.sf_vertices_at_height"),
    ("gogtool.stein_farley", "sf_vertices_at_height", "stein_farley.sf_vertices_at_height"),
    ("gogtool.cli", "descending_link", "stein_farley.descending_link"),
    ("gogtool.stein_farley", "descending_link", "stein_farley.descending_link"),
    ("gogtool.cli", "link_connectivity_report", "stein_farley.link_connectivity_report"),
    ("gogtool.stein_farley", "DescendingLink.to_json_dict", "stein_farley.to_json_dict"),
    ("gogtool.cli", "oracle_descending_link", "stein_farley.oracle_descending_link"),
    ("gogtool.stein_farley", "oracle_descending_link", "stein_farley.oracle_descending_link"),
    ("gogtool.cli", "lemma_connectivity_bound", "simplicial.lemma_connectivity_bound"),
    ("gogtool.simplicial", "lemma_connectivity_bound", "simplicial.lemma_connectivity_bound"),
    ("gogtool.stein_farley", "lemma_connectivity_bound", "simplicial.lemma_connectivity_bound"),
    ("gogtool.cli", "homology", "simplicial.homology"),
    ("gogtool.simplicial", "homology", "simplicial.homology"),
    ("gogtool.stein_farley", "homology", "simplicial.homology"),
    ("gogtool.simplicial", "random_complex", "simplicial.random_complex"),
]


def _count_trees(tracer, args, result):
    tracer.counters["trees"] += len(result)


def _count_link_faces(tracer, args, result):
    tracer.counters["link_faces"] += sum(result.f_vector)


def _count_lemma(tracer, args, result):
    tracer.counters["lemma_certified"] += result.bound is not None


def _count_skipped(tracer, args, result):
    tracer.counters["lemma_skipped"] += sum(
        d["ground_check"].startswith("lemma check skipped") for d in result.per_m
    )


def _count_homology_faces(tracer, args, result):
    # the face sets homology used are cached on the complex, so this is cheap
    cx = args[0]
    if cx.dimension <= 1:
        faces = len(cx.vertices) + len(cx.faces_of_size(2))
    else:
        faces = sum(len(cx.faces_of_size(s)) for s in range(1, len(result.betti) + 2))
    tracer.counters["homology_faces"] += faces


POST = {
    "patches.enumerate_admissible": _count_trees,
    "stein_farley.descending_link": _count_link_faces,
    "simplicial.lemma_connectivity_bound": _count_lemma,
    "stein_farley.link_connectivity_report": _count_skipped,
    "simplicial.homology": _count_homology_faces,
}


class Tracer:
    """In-memory spans and counters.  Wrappers record only while a job is
    open, so output checks between jobs stay untraced."""

    def __init__(self):
        self.job: str | None = None
        self.spans: list[tuple] = []  # (id, parent id, job, name, start, end)
        self.totals: dict[str, list[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        self.counters: Counter = Counter()
        self._stack: list[list] = []  # [id, name, start, child seconds]
        self._open: Counter = Counter()
        self._next_id = 0
        self._installed: list[tuple] = []
        self.missing: list[str] = []

    # -- spans -----------------------------------------------------------

    def enter(self, name: str) -> None:
        self._stack.append([self._next_id, name, time.perf_counter(), 0.0])
        self._next_id += 1
        self._open[name] += 1

    def exit(self) -> None:
        end = time.perf_counter()
        sid, name, start, child = self._stack.pop()
        self._open[name] -= 1
        dur = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += dur
        calls_total_self = self.totals[name]
        calls_total_self[0] += 1
        if not self._open[name]:  # outermost of its name: no double counting
            calls_total_self[1] += dur
        calls_total_self[2] += dur - child
        self.spans.append((sid, parent[0] if parent else None, self.job, name, start, end))

    def reset(self) -> None:
        self.spans.clear()
        self.totals.clear()
        self.counters.clear()

    def snapshot(self) -> tuple[dict, Counter]:
        return {k: tuple(v) for k, v in self.totals.items()}, Counter(self.counters)

    # -- wrapping --------------------------------------------------------

    def _wrap(self, fn, name):
        post = POST.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.job is None:
                return fn(*args, **kwargs)
            self.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.exit()
            if post is not None:
                post(self, args, result)
            return result

        return wrapper

    def install(self) -> None:
        self.missing = []
        for modname, attr, name in WRAPS:
            owner = importlib.import_module(modname)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            fn = owner.__dict__.get(leaf) if isinstance(owner, type) else getattr(owner, leaf, None)
            if fn is None:
                self.missing.append(f"{modname}.{attr}")
                continue
            setattr(owner, leaf, self._wrap(fn, name))
            self._installed.append((owner, leaf, fn))

    def uninstall(self) -> None:
        for owner, leaf, fn in reversed(self._installed):
            setattr(owner, leaf, fn)
        self._installed.clear()
