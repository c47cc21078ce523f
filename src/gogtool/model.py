"""Finite graphs of groups as half-edge index data.

A graph of groups is stored purely combinatorially: a finite connected
multigraph (loops allowed) with a positive integer attached to each
half-edge, the index of the edge group inside the vertex group at that
end.  Every construction in the toolkit (local tree models, gates,
carets, counting) depends only on these indices, so actual groups never
appear and every operation is decidable.

Loops are ordinary edges whose two endpoints coincide; their two
half-edges stay distinct objects.  Identifiers are user-supplied strings
and the canonical order on everything is lexicographic.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property

from .errors import GogSyntaxError, ValidationError

IOTA = "iota"
TAU = "tau"
ENDS = (IOTA, TAU)

_ID_RE = re.compile(r"[A-Za-z0-9_~'+-]+\Z")


def _check_id(kind: str, name: str) -> None:
    if not _ID_RE.match(name):
        raise ValidationError(f"invalid {kind} id {name!r} (allowed: letters, digits, _ ~ ' + -)")


@dataclass(frozen=True, order=True)
class HalfEdge:
    """One end of an edge: ``(edge id, end)`` with end in {iota, tau}."""

    edge: str
    end: str

    def __post_init__(self):
        if self.end not in ENDS:
            raise ValidationError(f"half-edge end must be iota or tau, got {self.end!r}")

    def opposite(self) -> "HalfEdge":
        return HalfEdge(self.edge, TAU if self.end == IOTA else IOTA)

    def __str__(self) -> str:
        return f"{self.edge}.{self.end}"


def parse_halfedge(text: str) -> HalfEdge:
    """Parse ``edge.iota`` / ``edge.tau`` notation."""
    name, dot, end = text.rpartition(".")
    if not dot or end not in ENDS:
        raise ValidationError(f"bad half-edge {text!r}, expected <edge>.iota or <edge>.tau")
    return HalfEdge(name, end)


@dataclass(frozen=True, order=True)
class Edge:
    name: str
    iota: str
    tau: str
    index_iota: int
    index_tau: int

    def __post_init__(self):
        _check_id("edge", self.name)
        if self.index_iota < 1 or self.index_tau < 1:
            raise ValidationError(f"edge {self.name}: indices must be >= 1")

    @property
    def is_loop(self) -> bool:
        return self.iota == self.tau

    def endpoint(self, end: str) -> str:
        return self.iota if end == IOTA else self.tau

    def index_at(self, end: str) -> int:
        return self.index_iota if end == IOTA else self.index_tau

    def halfedges(self) -> tuple[HalfEdge, HalfEdge]:
        return (HalfEdge(self.name, IOTA), HalfEdge(self.name, TAU))


@dataclass(frozen=True)
class GraphOfGroups:
    """Immutable finite connected graph with half-edge indices.

    ``vertices`` and ``edges`` are normalised to sorted tuples on
    construction, so structural equality is value equality.
    """

    vertices: tuple[str, ...]
    edges: tuple[Edge, ...]

    def __post_init__(self):
        object.__setattr__(self, "vertices", tuple(sorted(self.vertices)))
        object.__setattr__(self, "edges", tuple(sorted(self.edges, key=lambda e: e.name)))
        if not self.vertices:
            raise ValidationError("graph needs at least one vertex")
        seen = set()
        for v in self.vertices:
            _check_id("vertex", v)
            if v in seen:
                raise ValidationError(f"duplicate vertex id {v!r}")
            seen.add(v)
        vset = set(self.vertices)
        enames = set()
        for e in self.edges:
            if e.name in enames:
                raise ValidationError(f"duplicate edge id {e.name!r}")
            enames.add(e.name)
            for v in (e.iota, e.tau):
                if v not in vset:
                    raise ValidationError(f"edge {e.name}: unknown vertex {v!r}")
        self._check_connected()

    def _check_connected(self) -> None:
        if len(self.vertices) == 1:
            return
        adj: dict[str, set[str]] = {v: set() for v in self.vertices}
        for e in self.edges:
            adj[e.iota].add(e.tau)
            adj[e.tau].add(e.iota)
        seen = {self.vertices[0]}
        stack = [self.vertices[0]]
        while stack:
            for w in adj[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        missing = sorted(set(self.vertices) - seen)
        if missing:
            raise ValidationError(f"graph is disconnected; unreachable vertices: {', '.join(missing)}")

    # -- lookups ---------------------------------------------------------

    @cached_property
    def _edge_by_name(self) -> dict[str, Edge]:
        return {e.name: e for e in self.edges}

    @cached_property
    def _halfedges_at(self) -> dict[str, tuple[HalfEdge, ...]]:
        at: dict[str, list[HalfEdge]] = {v: [] for v in self.vertices}
        for e in self.edges:
            at[e.iota].append(HalfEdge(e.name, IOTA))
            at[e.tau].append(HalfEdge(e.name, TAU))
        return {v: tuple(sorted(hs)) for v, hs in at.items()}

    def edge(self, name: str) -> Edge:
        try:
            return self._edge_by_name[name]
        except KeyError:
            raise ValidationError(f"unknown edge {name!r}") from None

    def half_edges(self) -> tuple[HalfEdge, ...]:
        out: list[HalfEdge] = []
        for e in self.edges:
            out.extend(e.halfedges())
        return tuple(sorted(out))

    def halfedges_at(self, v: str) -> tuple[HalfEdge, ...]:
        try:
            return self._halfedges_at[v]
        except KeyError:
            raise ValidationError(f"unknown vertex {v!r}") from None

    def vertex_of(self, h: HalfEdge) -> str:
        return self.edge(h.edge).endpoint(h.end)

    def index(self, h: HalfEdge) -> int:
        return self.edge(h.edge).index_at(h.end)

    def degree(self, v: str) -> int:
        return sum(self.index(h) for h in self.halfedges_at(v))


def tree_degrees(g: GraphOfGroups) -> dict[str, int]:
    """Degree of any tree vertex over v, per vertex v: the sum of the
    indices at v.

    The local tree is locally finite exactly because the graph is finite
    and every index is finite.
    """
    return {v: g.degree(v) for v in g.vertices}


def augment(g: GraphOfGroups) -> GraphOfGroups:
    """Enlarge every vertex group by a factor-3 direct summand.

    The underlying graph is unchanged and every half-edge index is
    multiplied by 3.  This is the standard repair for graphs whose local
    tree is too thin (e.g. the bi-infinite line coming from indices (1,1)).
    """
    return GraphOfGroups(
        g.vertices,
        tuple(
            Edge(e.name, e.iota, e.tau, 3 * e.index_iota, 3 * e.index_tau)
            for e in g.edges
        ),
    )


def _fresh(name: str, taken: set[str]) -> str:
    out = name
    while out in taken:
        out += "~2"
    return out


def glue(
    g1: GraphOfGroups,
    v: str,
    g2: GraphOfGroups,
    w: str,
    idx_v: int,
    idx_w: int,
) -> GraphOfGroups:
    """Disjoint union of g1 and g2 joined by one new edge from v to w.

    Identifier collisions on the g2 side are resolved by appending ``~2``
    (repeatedly, until fresh); g1 keeps its names.  The new edge carries
    indices (idx_v, idx_w) at its ends and is itself named freshly.
    """
    if v not in g1.vertices:
        raise ValidationError(f"vertex {v!r} is not in the first graph")
    if w not in g2.vertices:
        raise ValidationError(f"vertex {w!r} is not in the second graph")
    if idx_v < 1 or idx_w < 1:
        raise ValidationError("glue indices must be >= 1")

    vnames = set(g1.vertices)
    vmap: dict[str, str] = {}
    for u in g2.vertices:
        nu = _fresh(u, vnames)
        vnames.add(nu)
        vmap[u] = nu
    enames = {e.name for e in g1.edges}
    edges = list(g1.edges)
    for e in g2.edges:
        ne = _fresh(e.name, enames)
        enames.add(ne)
        edges.append(Edge(ne, vmap[e.iota], vmap[e.tau], e.index_iota, e.index_tau))
    bridge = _fresh("glue", enames)
    edges.append(Edge(bridge, v, vmap[w], idx_v, idx_w))
    return GraphOfGroups(tuple(vnames), tuple(edges))


# -- example constructors ------------------------------------------------

_FAMILY_RE = re.compile(r"\A([a-z_]+)\s*(?:\(\s*(-?\d+)\s*,\s*(-?\d+)\s*\))?\Z")

#: Free-text background for each constructor; purely informational.  In
#: particular, which ambient group the vertex/edge groups are commensurable
#: with is not expressible in index data and is only recorded here.
EXAMPLE_NOTES: dict[str, str] = {
    "bs": "one-loop HNN index data for the two-generator one-relator groups "
    "with a^n conjugate to a^m; vertex and edge groups are infinite cyclic. "
    "Faithfulness of the tree action is an input assumption, never verified here.",
    "loop": "one vertex with a single loop carrying indices (a, b).",
    "amalgam": "two vertices joined by a single edge with indices (a, b); "
    "the index shape of an amalgamated product with finite-index factors.",
    "z_line": "loop(1,1); the local tree is a bi-infinite line, the standard "
    "degenerate case that augmentation repairs.",
}


def example_family(spec: str) -> GraphOfGroups:
    """Build a named example: bs(n,m), loop(a,b), amalgam(a,b) or z_line."""
    m = _FAMILY_RE.match(spec.strip())
    if not m:
        raise ValidationError(f"unrecognised example spec {spec!r}")
    name, a_s, b_s = m.groups()
    if name == "z_line":
        if a_s is not None:
            raise ValidationError("z_line takes no parameters")
        return example_family("loop(1,1)")
    if a_s is None or b_s is None:
        raise ValidationError(f"{name} needs two integer parameters")
    a, b = int(a_s), int(b_s)
    if name == "bs":
        if a == 0 or b == 0:
            raise ValidationError(
                "bs(n,m) needs n, m nonzero; the degenerate cases are virtually free "
                "and outside the scope of this toolkit"
            )
        return GraphOfGroups(("v",), (Edge("e", "v", "v", abs(a), abs(b)),))
    if a < 1 or b < 1:
        raise ValidationError(f"{name} needs parameters >= 1")
    if name == "loop":
        return GraphOfGroups(("v",), (Edge("e", "v", "v", a, b),))
    if name == "amalgam":
        return GraphOfGroups(("v", "w"), (Edge("e", "v", "w", a, b),))
    raise ValidationError(f"unknown example family {name!r}")


# -- .gog text format ----------------------------------------------------


@dataclass(frozen=True)
class GogDocument:
    """Parsed .gog file: the graph plus optional gate and order lines."""

    graph: GraphOfGroups
    gates: tuple[HalfEdge, ...] = ()
    order: tuple[str, ...] | None = None


def _tokens(line: str) -> list[tuple[str, int]]:
    return [(m.group(0), m.start() + 1) for m in re.finditer(r"\S+", line)]


def parse_document(text: str) -> GogDocument:
    """Parse a .gog document (line oriented, ``#`` comments)."""
    vertices: list[str] = []
    edges: list[Edge] = []
    gates: list[HalfEdge] = []
    order: tuple[str, ...] | None = None

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        toks = _tokens(line)
        if not toks:
            continue
        word, col = toks[0]

        def fail(msg: str, at: int = col) -> GogSyntaxError:
            return GogSyntaxError(msg, lineno, at)

        if word == "vertex":
            if len(toks) != 2:
                raise fail("expected: vertex <id>")
            vertices.append(toks[1][0])
        elif word == "edge":
            # edge <id> : <vid> -> <vid> index <int> <int>
            if len(toks) != 9 or toks[2][0] != ":" or toks[4][0] != "->" or toks[6][0] != "index":
                raise fail("expected: edge <id> : <vid> -> <vid> index <int> <int>")
            name = toks[1][0]
            vi, vt = toks[3][0], toks[5][0]
            try:
                ii, it = int(toks[7][0]), int(toks[8][0])
            except ValueError:
                raise fail("indices must be integers", toks[7][1]) from None
            if ii < 1:
                raise fail(f"edge {name}: index {ii} < 1", toks[7][1])
            if it < 1:
                raise fail(f"edge {name}: index {it} < 1", toks[8][1])
            edges.append(Edge(name, vi, vt, ii, it))
        elif word == "gate":
            if len(toks) != 2:
                raise fail("expected: gate <edge-id>.<iota|tau>")
            try:
                gates.append(parse_halfedge(toks[1][0]))
            except ValidationError as exc:
                raise fail(str(exc), toks[1][1]) from None
        elif word == "order":
            if len(toks) < 2:
                raise fail("expected: order <vid> <vid> ...")
            order = tuple(t for t, _ in toks[1:])
        else:
            raise fail(f"unknown directive {word!r}")

    graph = GraphOfGroups(tuple(vertices), tuple(edges))
    enames = {e.name for e in graph.edges}
    for h in gates:
        if h.edge not in enames:
            raise ValidationError(f"gate {h}: unknown edge {h.edge!r}")
    if order is not None:
        if sorted(order) != list(graph.vertices):
            raise ValidationError("order line must list every vertex exactly once")
    return GogDocument(graph, tuple(sorted(set(gates))), order)


def parse_gog(text: str) -> GraphOfGroups:
    """Parse a .gog document and return just the graph."""
    return parse_document(text).graph


def serialize_gog(
    g: GraphOfGroups,
    gates: tuple[HalfEdge, ...] = (),
    order: tuple[str, ...] | None = None,
) -> str:
    """Canonical, byte-stable .gog serialisation (inverse of parse)."""
    lines = [f"vertex {v}" for v in g.vertices]
    lines += [
        f"edge {e.name} : {e.iota} -> {e.tau} index {e.index_iota} {e.index_tau}"
        for e in g.edges
    ]
    lines += [f"gate {h}" for h in sorted(set(gates))]
    if order is not None:
        lines.append("order " + " ".join(order))
    return "\n".join(lines) + "\n"
