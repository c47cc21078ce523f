"""Shared fixtures: bundled example systems and a seeded graph generator."""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

import pytest

import gogtool as gt
from gogtool.model import Edge, GraphOfGroups

DATA = Path(__file__).resolve().parent.parent / "data"


@dataclass(frozen=True)
class System:
    g: gt.GraphOfGroups
    gs: gt.GateSystem
    t0: gt.TreePatch
    table: gt.CaretTable
    base: gt.CountVector


def make_system(g: gt.GraphOfGroups, root: str | None = None) -> System:
    gs = gt.default_gates(g)
    t0 = gt.base_tree(g, gs, root or g.vertices[0])
    table = gt.caret_table(g, gs)
    return System(g, gs, t0, table, t0.counts())


@pytest.fixture(scope="session")
def loop33() -> System:
    return make_system(gt.example_family("loop(3,3)"))


@pytest.fixture(scope="session")
def bs23() -> System:
    return make_system(gt.example_family("bs(2,3)"))


@pytest.fixture(scope="session")
def bs23_aug() -> System:
    return make_system(gt.augment(gt.example_family("bs(2,3)")))


@pytest.fixture(scope="session")
def z_line() -> System:
    return make_system(gt.example_family("z_line"))


@pytest.fixture(scope="session")
def amalgam33() -> System:
    return make_system(gt.example_family("amalgam(3,3)"))


@pytest.fixture(scope="session")
def triple() -> System:
    return make_system(gt.parse_gog((DATA / "triple.gog").read_text()))


def oracle_caret_census(g, gs, nu):
    """Definition-level caret recomputation, independent of the address
    machinery: recursive expansion census keyed by entry half-edge."""
    from collections import Counter

    def expand(entry, depth=0):
        assert depth < 50, "growth did not terminate"
        v = g.vertex_of(entry)
        terminals = Counter()
        interiors = 1
        for h in g.halfedges_at(v):
            n = g.index(h) - (1 if h == entry else 0)
            if n == 0:
                continue
            far = h.opposite()
            if far in gs:
                terminals[far] += n
            else:
                t2, i2 = expand(far, depth + 1)
                for key, cnt in t2.items():
                    terminals[key] += n * cnt
                interiors += n * i2
        return terminals, interiors

    return expand(nu)


def forced_completion(system, addr, entry):
    """The caret below ``addr`` by its definition, as the stack walk that
    grew it before shapes existed: ``addr`` and, recursively, every child
    whose entry is not a gate."""
    out, stack = set(), [(addr, entry)]
    while stack:
        a, e = stack.pop()
        out.add(a)
        for step, child in system.children[e].items():
            if system.gate_type[child] is None:
                stack.append((a + (step,), child))
    return out


def random_gog(rng: random.Random, max_vertices: int = 4, min_degree_two: bool = False) -> GraphOfGroups:
    """Seeded random connected multigraph with indices in 1..4."""
    n = rng.randint(1, max_vertices)
    vertices = [f"v{i}" for i in range(n)]
    edges = []
    for i in range(1, n):
        edges.append(
            Edge(f"t{i}", vertices[rng.randrange(i)], vertices[i], rng.randint(1, 4), rng.randint(1, 4))
        )
    for j in range(rng.randint(0, 2)):
        a = vertices[rng.randrange(n)]
        b = vertices[rng.randrange(n)]
        edges.append(Edge(f"x{j}", a, b, rng.randint(1, 4), rng.randint(1, 4)))
    g = GraphOfGroups(tuple(vertices), tuple(edges))
    if min_degree_two:
        extra = []
        for i, v in enumerate(g.vertices):
            if g.degree(v) < 2:
                extra.append(Edge(f"l{i}", v, v, 1, 1))
        if extra:
            g = GraphOfGroups(g.vertices, g.edges + tuple(extra))
    return g
