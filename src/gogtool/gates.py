"""Gate systems on the quotient graph and the admissibility decision.

A gate system is a set of half-edges.  It is admissible when every
infinite ray in the local tree model is eventually blocked by entering a
vertex through a gate.  That holds iff the *entry-state digraph* is
acyclic, where

  * states are the half-edges NOT in the gate set, read as "a leaf was
    entered through this half-edge and is forced to be expanded", and
  * there is a transition from state s (at vertex v) to state opp(h) for
    every half-edge h at v with opp(h) not a gate, except that h == s
    additionally requires index(s) >= 2, because one lift of s is already
    consumed by the incoming edge.

Cycles are exactly the periodic unblocked rays, so an inadmissible
verdict comes with a replayable witness cycle and an admissible one with
a topological order of the states.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .errors import ValidationError
from .model import GraphOfGroups, HalfEdge


@dataclass(frozen=True)
class GateSystem:
    """A gate set over a fixed graph; gate types are 0-based positions in
    the canonically sorted ``gates`` tuple (reports print them 1-based)."""

    graph: GraphOfGroups
    gates: tuple[HalfEdge, ...]

    def __post_init__(self):
        object.__setattr__(self, "gates", tuple(sorted(set(self.gates))))
        all_h = set(self.graph.half_edges())
        for h in self.gates:
            if h not in all_h:
                raise ValidationError(f"gate {h} is not a half-edge of the graph")

    @property
    def k(self) -> int:
        return len(self.gates)

    @cached_property
    def _index(self) -> dict[HalfEdge, int]:
        return {h: i for i, h in enumerate(self.gates)}

    def __contains__(self, h: HalfEdge) -> bool:
        return h in self._index

    def type_index(self, h: HalfEdge) -> int:
        try:
            return self._index[h]
        except KeyError:
            raise ValidationError(f"{h} is not a gate") from None


def default_gates(g: GraphOfGroups, vertex_order: tuple[str, ...] | None = None) -> GateSystem:
    """The standard admissible system from a total order on the vertices.

    Every non-loop edge gets a gate on the half-edge pointing to the
    higher endpoint; loops get gates on both half-edges.  The default
    order is lexicographic.
    """
    if vertex_order is None:
        vertex_order = g.vertices
    if sorted(vertex_order) != list(g.vertices):
        raise ValidationError("vertex_order must list every vertex exactly once")
    rank = {v: i for i, v in enumerate(vertex_order)}
    gates: list[HalfEdge] = []
    for e in g.edges:
        if e.is_loop:
            gates.extend(e.halfedges())
        elif rank[e.iota] < rank[e.tau]:
            gates.append(HalfEdge(e.name, "tau"))
        else:
            gates.append(HalfEdge(e.name, "iota"))
    return GateSystem(g, tuple(gates))


@dataclass(frozen=True)
class AdmissibilityCertificate:
    admissible: bool
    #: for inadmissible systems: a cycle of entry states, none of them gates
    witness_cycle: tuple[HalfEdge, ...] | None = None
    #: for admissible systems: a topological order of the entry-state digraph
    topological_order: tuple[HalfEdge, ...] | None = None


def entry_transitions(g: GraphOfGroups, gs: GateSystem, s: HalfEdge) -> list[tuple[HalfEdge, HalfEdge]]:
    """Transitions out of entry state ``s`` as (exit half-edge, next state)."""
    v = g.vertex_of(s)
    out: list[tuple[HalfEdge, HalfEdge]] = []
    for h in g.halfedges_at(v):
        if h == s and g.index(s) < 2:
            continue
        nxt = h.opposite()
        if nxt in gs:
            continue
        out.append((h, nxt))
    return out


def is_admissible(g: GraphOfGroups, gs: GateSystem) -> AdmissibilityCertificate:
    """Decide admissibility of ``gs`` and produce a certificate."""
    if gs.graph != g:
        raise ValidationError("gate system belongs to a different graph")
    states = [h for h in g.half_edges() if h not in gs]
    succ = {s: [n for _, n in entry_transitions(g, gs, s)] for s in states}

    # iterative DFS with colouring; first back edge yields the witness cycle
    WHITE, GREY, BLACK = 0, 1, 2
    colour = {s: WHITE for s in states}
    for start in states:
        if colour[start] != WHITE:
            continue
        path: list[HalfEdge] = []
        stack: list[tuple[HalfEdge, int]] = [(start, 0)]
        colour[start] = GREY
        path.append(start)
        while stack:
            node, i = stack.pop()
            if i < len(succ[node]):
                stack.append((node, i + 1))
                nxt = succ[node][i]
                if colour[nxt] == GREY:
                    cycle = path[path.index(nxt):]
                    return AdmissibilityCertificate(False, witness_cycle=tuple(cycle))
                if colour[nxt] == WHITE:
                    colour[nxt] = GREY
                    path.append(nxt)
                    stack.append((nxt, 0))
            else:
                colour[node] = BLACK
                path.pop()

    # acyclic: deterministic Kahn order
    indeg = {s: 0 for s in states}
    for s in states:
        for n in succ[s]:
            indeg[n] += 1
    ready = sorted(s for s in states if indeg[s] == 0)
    topo: list[HalfEdge] = []
    while ready:
        s = ready.pop(0)
        topo.append(s)
        changed = False
        for n in succ[s]:
            indeg[n] -= 1
            if indeg[n] == 0:
                ready.append(n)
                changed = True
        if changed:
            ready.sort()
    return AdmissibilityCertificate(True, topological_order=tuple(topo))


def replay_witness(g: GraphOfGroups, gs: GateSystem, cycle: tuple[HalfEdge, ...]) -> bool:
    """Check that a witness cycle replays under the transition rule without
    ever entering a vertex through a gate."""
    if not cycle:
        return False
    for s in cycle:
        if s in gs:
            return False
    for i, s in enumerate(cycle):
        nxt = cycle[(i + 1) % len(cycle)]
        if (nxt.opposite(), nxt) not in entry_transitions(g, gs, s):
            return False
    return True


def escape_ray(g: GraphOfGroups, gs: GateSystem, certificate: AdmissibilityCertificate) -> tuple[HalfEdge, ...]:
    """Render an inadmissibility witness as a traversable path template.

    Returns the flattened step list ``(exit_1, enter_1, exit_2, enter_2, ...)``
    whose infinite periodic repetition lifts to a ray in the tree model that
    never enters a vertex through a gate.
    """
    if certificate.admissible:
        raise ValidationError("escape_ray needs an inadmissible certificate")
    cycle = certificate.witness_cycle
    if not cycle or not replay_witness(g, gs, cycle):
        raise ValidationError("certificate carries no replayable witness cycle")
    ray: list[HalfEdge] = []
    for i in range(len(cycle)):
        nxt = cycle[(i + 1) % len(cycle)]
        ray.append(nxt.opposite())
        ray.append(nxt)
    return tuple(ray)
