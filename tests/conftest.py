"""Shared fixtures: bundled example systems, a seeded graph generator,
the canonical face format check, the link spec invariant and the
residual-count oracle for the allowed set."""

from __future__ import annotations

import operator
import random
from collections.abc import Sequence
from dataclasses import dataclass
from pathlib import Path

import pytest

import gogtool as gt
from gogtool.count_algebra import CountVector, realizable
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


def assert_canonical(cx: gt.SimplicialComplex) -> None:
    """Layer s of ``cx`` is a nonempty, strictly increasing tuple of sorted
    s-vertex tuples, and the vertices are read off the first layer."""
    for size, layer in enumerate(cx.faces, 1):
        assert type(layer) is tuple and layer, size
        assert all(type(f) is tuple and list(f) == sorted(set(f)) and len(f) == size for f in layer)
        assert all(a < b for a, b in zip(layer, layer[1:])), size
    assert cx.vertices == tuple(v for (v,) in (cx.faces[0] if cx.faces else ()))


def assert_spec_holds(link) -> None:
    """The link's A is nonzero, downward closed and fits (M mu <= L), its
    spec counts the built link, every face layer is sorted, and the maximal
    faces its JSON reads off A are those of its complex."""
    spec = link.spec
    for mu in spec.allowed:
        assert any(mu), link.x
        used = (sum(m * c for m, c in zip(row, mu)) for row in spec.M)
        assert all(u <= n for u, n in zip(used, spec.leaves)), (link.x, mu)
        below = (tuple(c - (t == j) for t, c in enumerate(mu)) for j in range(len(mu)) if mu[j])
        assert all(nu in spec.allowed for nu in below if any(nu)), (link.x, mu)
    assert spec.f_vector() == link.f_vector, link.x
    assert all(list(layer) == sorted(layer) for layer in link.higher_faces), link.x
    assert link.to_json_dict()["maximal_faces"] == link.to_complex().maximal_faces, link.x


def elementary_expansion_ok(c: CountVector, mu: Sequence[int], table, base: CountVector) -> bool:
    """Count-level test: can a tree with counts ``c`` be rearranged into an
    elementary expansion by the caret-type multiset ``mu`` (multiplicity
    per type)?

    True iff the residual counts (subtract each caret's interior and leaf
    contribution) keep at least the base interior, leave at least mu[t]
    leaves of every type t to attach the carets to (so none is negative),
    and are realizable.  Assumes the viral property.
    """
    res_i = c.interior - sum(map(operator.mul, table.I, mu))
    # a caret of type j removes its M[i][j] type-i leaves and restores
    # the type-j leaf it was attached at
    res_l = tuple(
        l + m - sum(map(operator.mul, row, mu)) for l, m, row in zip(c.leaves, mu, table.M)
    )
    return (
        res_i >= base.interior
        and all(l >= m for l, m in zip(res_l, mu))
        and bool(realizable(CountVector(res_i, res_l), table, base, viral=True))
    )


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
