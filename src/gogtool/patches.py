"""Finite admissible subtrees of the local tree model.

Instead of materialising the infinite tree, a patch stores a set of
*addresses* in a deterministic ambient enumeration rooted at a chosen
vertex: the children of a vertex are ordered by (half-edge, lift index),
the edge to child ``(h, i)`` exits through half-edge ``h`` and is entered
at the child through ``opp(h)``.  A patch is any prefix-closed address
set in which every vertex is either a leaf or has full degree.  This
gives patches value semantics, so unions, intersections and
deduplication are plain set operations.

Admissible patches additionally have every leaf entered through a gate.
The root of an admissible patch is always interior here; base trees are
grown from vertex seeds, so this costs nothing at desk scale.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property

from .count_algebra import CountVector, History
from .errors import (
    CapExceeded,
    DegenerateGraphError,
    InadmissibleGateSystem,
    InvariantViolation,
    ValidationError,
)
from .gates import AdmissibilityCertificate, GateSystem, is_admissible
from .model import GraphOfGroups, HalfEdge

Step = tuple[HalfEdge, int]
Address = tuple[Step, ...]

DEFAULT_NODE_BUDGET = 1_000_000
DEFAULT_TREE_BUDGET = 200_000
DEFAULT_REPAIR_BUDGET = 32


@dataclass(frozen=True)
class TreeSystem:
    """Shared ambient context: graph, gate system and root vertex.

    Two patches can be combined only if their systems are equal; this is
    what "embedded in a common ambient enumeration" means operationally.
    """

    graph: GraphOfGroups
    gates: GateSystem
    root: str

    def __post_init__(self):
        if self.gates.graph != self.graph:
            raise ValidationError("gate system belongs to a different graph")
        if self.root not in self.graph.vertices:
            raise ValidationError(f"unknown root vertex {self.root!r}")
        for v in self.graph.vertices:
            d = self.graph.degree(v)
            if d < 2:
                raise DegenerateGraphError(
                    f"vertex {v!r} has tree degree {d} < 2: the local tree model "
                    "would have leaves, which this toolkit rejects"
                )

    @cached_property
    def certificate(self) -> AdmissibilityCertificate:
        return is_admissible(self.graph, self.gates)

    def require_admissible(self) -> None:
        cert = self.certificate
        if not cert.admissible:
            cyc = ", ".join(str(h) for h in cert.witness_cycle or ())
            raise InadmissibleGateSystem(
                f"gate system is inadmissible (growth would not terminate); "
                f"witness entry-state cycle: [{cyc}]"
            )

    # hot-path caches: label, entry and child capacity depend only on the
    # last step of an address

    @cached_property
    def _step_targets(self) -> dict[HalfEdge, tuple[str, HalfEdge]]:
        out = {}
        for h in self.graph.half_edges():
            o = h.opposite()
            out[h] = (self.graph.vertex_of(o), o)
        return out

    @cached_property
    def _index(self) -> dict[HalfEdge, int]:
        return {h: self.graph.index(h) for h in self.graph.half_edges()}

    @cached_property
    def _full_counts(self) -> dict[tuple[str, HalfEdge | None], int]:
        out: dict[tuple[str, HalfEdge | None], int] = {}
        for v in self.graph.vertices:
            total = sum(self._index[h] for h in self.graph.halfedges_at(v))
            out[(v, None)] = total
            for h in self.graph.halfedges_at(v):
                out[(v, h)] = total - 1
        return out

    def label_of(self, addr: Address) -> str:
        if not addr:
            return self.root
        return self._step_targets[addr[-1][0]][0]

    def entry_of(self, addr: Address) -> HalfEdge | None:
        if not addr:
            return None
        return self._step_targets[addr[-1][0]][1]

    def full_child_count(self, addr: Address) -> int:
        """Number of children an interior vertex at this address has."""
        return self._full_counts[(self.label_of(addr), self.entry_of(addr))]


@dataclass(frozen=True)
class TreePatch:
    """A finite subtree of the ambient model, with value semantics.

    ``marked`` is an optional set of distinguished vertices (used to pin a
    finite vertex set into the base tree); it has no behavioural effect.
    """

    system: TreeSystem
    nodes: frozenset[Address]
    marked: frozenset[Address] = frozenset()

    def __post_init__(self):
        if () not in self.nodes:
            raise ValidationError("a patch must contain its root address ()")
        system = self.system
        index = system._index
        nodes = self.nodes
        for addr in nodes:
            if not addr:
                continue
            parent = addr[:-1]
            if parent not in nodes:
                raise ValidationError(f"patch is not prefix-closed at {addr}")
            h, i = addr[-1]
            plabel = system.label_of(parent)
            if system.graph.vertex_of(h) != plabel:
                raise ValidationError(f"step {h} is not a half-edge at vertex {plabel!r}")
            cap = index[h] - (1 if h == system.entry_of(parent) else 0)
            if not 0 <= i < cap:
                raise ValidationError(
                    f"lift index {i} out of range for slot {h} (capacity {cap})"
                )
        if not self.marked <= self.nodes:
            raise ValidationError("marked vertices must belong to the patch")
        for addr, n in self._child_counts.items():
            if n == 0:
                continue
            full = system.full_child_count(addr)
            if n != full and not (addr == () and n == 1):
                raise ValidationError(
                    f"vertex at {addr} is neither a leaf nor interior "
                    f"({n} of {full} children present)"
                )

    # -- structure ---------------------------------------------------------

    @cached_property
    def _child_counts(self) -> dict[Address, int]:
        counts: dict[Address, int] = {addr: 0 for addr in self.nodes}
        for addr in self.nodes:
            if addr:
                counts[addr[:-1]] += 1
        return counts

    @property
    def size(self) -> int:
        return len(self.nodes)

    def is_graph_leaf(self, addr: Address) -> bool:
        n = self._child_counts[addr]
        return n == 0 if addr else n <= 1

    def is_interior(self, addr: Address) -> bool:
        return not self.is_graph_leaf(addr)

    @cached_property
    def _leaves(self) -> tuple[tuple[Address, HalfEdge | None], ...]:
        entry = self.system.entry_of
        return tuple(
            sorted(
                (addr, entry(addr))
                for addr, n in self._child_counts.items()
                if (n == 0 if addr else n <= 1)
            )
        )

    def leaves(self) -> tuple[tuple[Address, HalfEdge | None], ...]:
        """All graph leaves with their entry half-edges (None at the root)."""
        return self._leaves

    def typed_leaves(self) -> list[tuple[Address, HalfEdge]]:
        """Leaves whose entry half-edge is a gate, i.e. admissible leaves."""
        gs = self.system.gates
        return [(a, e) for a, e in self._leaves if e is not None and e in gs]

    @cached_property
    def interior_addresses(self) -> frozenset[Address]:
        return frozenset(a for a in self.nodes if self.is_interior(a))

    @cached_property
    def _admissible(self) -> bool:
        gate_index = self.system.gates._index
        return all(e is not None and e in gate_index for _, e in self._leaves)

    def is_admissible(self) -> bool:
        return self._admissible

    def require_admissible(self, what: str = "patch") -> None:
        if not self.is_admissible():
            bad = [(a, e) for a, e in self.leaves() if e is None or e not in self.system.gates]
            raise ValidationError(f"{what} is not admissible; bad leaves: {bad[:3]}")

    @cached_property
    def _counts(self) -> CountVector:
        gs = self.system.gates
        census = Counter(e for _, e in self._leaves if e is not None and e in gs)
        leaves = tuple(census.get(h, 0) for h in gs.gates)
        return CountVector(len(self.nodes) - len(self._leaves), leaves)

    def counts(self) -> CountVector:
        """Interior count and typed-leaf census.

        Leaves without a gate entry (possible only on non-admissible
        patches, e.g. the attach end of a standalone caret) are not counted
        in L.
        """
        return self._counts

    def contains(self, other: "TreePatch") -> bool:
        return self.system == other.system and other.nodes <= self.nodes

    def sort_key(self):
        return (len(self.nodes), tuple(sorted(self.nodes)))


# -- growth --------------------------------------------------------------


def _expand_vertex(
    system: TreeSystem,
    present: frozenset[Address] | set[Address],
    addr: Address,
    entry: HalfEdge | None,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> set[Address]:
    """Addresses of the minimal forced completion below ``addr``.

    Makes ``addr`` interior and recursively expands every new vertex whose
    entry half-edge is not a gate.  Children already in ``present`` are
    kept as they are.  Termination is exactly admissibility of the gate
    system, which is checked up front.
    """
    system.require_admissible()
    g = system.graph
    gate_index = system.gates._index
    index = system._index
    targets = system._step_targets
    new: set[Address] = set()
    stack: list[tuple[Address, str, HalfEdge | None]] = [
        (addr, system.label_of(addr), entry)
    ]
    while stack:
        a, label, ent = stack.pop()
        for h in g.halfedges_at(label):
            cap = index[h] - (1 if h == ent else 0)
            child_label, child_entry = targets[h]
            recurse = child_entry not in gate_index
            for i in range(cap):
                child = a + ((h, i),)
                if child in present or child in new:
                    continue
                new.add(child)
                if recurse:
                    stack.append((child, child_label, child_entry))
        if len(new) > node_budget:
            raise CapExceeded(
                f"growth below {addr} exceeded the node budget of {node_budget}"
            )
    return new


def base_tree(
    g: GraphOfGroups,
    gs: GateSystem,
    seed: "TreePatch | str",
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> TreePatch:
    """The minimal admissible patch containing the seed.

    The seed is either an existing patch or a vertex id (which roots the
    ambient enumeration).  Every leaf that is not entered through a gate,
    including a bare or partial root, is expanded recursively; a seed that
    is already admissible comes back unchanged.
    """
    if isinstance(seed, TreePatch):
        if seed.system.graph != g or seed.system.gates != gs:
            raise ValidationError("seed patch belongs to a different system")
        system = seed.system
        nodes: set[Address] = set(seed.nodes)
        marked = seed.marked
    else:
        system = TreeSystem(g, gs, root=seed)
        nodes = {()}
        marked = frozenset()
    system.require_admissible()

    while True:
        parents = {a[:-1] for a in nodes if a}
        root_children = sum(1 for a in nodes if len(a) == 1)
        bad: list[tuple[Address, HalfEdge | None]] = []
        for a in nodes:
            if a:
                if a not in parents:
                    e = system.entry_of(a)
                    if e not in gs:
                        bad.append((a, e))
            elif root_children <= 1:
                bad.append(((), None))
        if not bad:
            break
        for a, e in sorted(bad, key=lambda p: p[0]):
            nodes |= _expand_vertex(system, nodes, a, e, node_budget)
    return TreePatch(system, frozenset(nodes), marked)


# -- carets ----------------------------------------------------------------


@dataclass(frozen=True)
class Caret:
    """The unique minimal expansion beyond a leaf of a given gate type.

    The patch is rooted at the outer end of the attach edge, which is
    therefore an untyped leaf; everything else is the grown material.
    """

    gate: HalfEdge
    patch: TreePatch
    attach_edge: tuple[Address, Address]
    terminal_leaf_types: tuple[tuple[HalfEdge, int], ...]
    interior_count: int

    def terminal_total(self) -> int:
        return sum(n for _, n in self.terminal_leaf_types)


def caret(g: GraphOfGroups, gs: GateSystem, nu: HalfEdge, node_budget: int = DEFAULT_NODE_BUDGET) -> Caret:
    """Grow the caret of gate type ``nu``.

    The leaf vertex is expanded to full degree and every new leaf whose
    entry is not a gate is expanded in turn; growth terminates exactly
    when the gate system is admissible, which is checked up front.
    """
    if nu not in gs:
        raise ValidationError(f"{nu} is not a gate of the system")
    root_label = g.vertex_of(nu.opposite())
    system = TreeSystem(g, gs, root=root_label)
    system.require_admissible()
    child: Address = ((nu.opposite(), 0),)
    nodes = {(), child}
    nodes |= _expand_vertex(system, nodes, child, nu, node_budget)
    patch = TreePatch(system, frozenset(nodes))
    census = Counter(e for a, e in patch.leaves() if a != () and e is not None)
    return Caret(
        gate=nu,
        patch=patch,
        attach_edge=((), child),
        terminal_leaf_types=tuple(sorted(census.items())),
        interior_count=len(patch.interior_addresses),
    )


@dataclass(frozen=True)
class CaretTable:
    """One caret per gate type; M[i][j] = type-i terminal leaves of caret j."""

    gates: tuple[HalfEdge, ...]
    M: tuple[tuple[int, ...], ...]
    I: tuple[int, ...]
    carets: tuple[Caret, ...]

    def column(self, j: int) -> tuple[int, ...]:
        return tuple(self.M[i][j] for i in range(len(self.gates)))

    def to_json_dict(self) -> dict:
        return {
            "gates": [str(h) for h in self.gates],
            "M": [list(row) for row in self.M],
            "I": list(self.I),
            "carets": [
                {
                    "gate": str(c.gate),
                    "interior": c.interior_count,
                    "terminal_leaves": {str(h): n for h, n in c.terminal_leaf_types},
                }
                for c in self.carets
            ],
        }


def caret_table(g: GraphOfGroups, gs: GateSystem, node_budget: int = DEFAULT_NODE_BUDGET) -> CaretTable:
    """Assemble M and I column-wise from the carets of all gate types."""
    carets = tuple(caret(g, gs, nu, node_budget) for nu in gs.gates)
    k = gs.k
    m_rows = tuple(
        tuple(dict(carets[j].terminal_leaf_types).get(gs.gates[i], 0) for j in range(k))
        for i in range(k)
    )
    return CaretTable(gs.gates, m_rows, tuple(c.interior_count for c in carets), carets)


# -- expansions, histories, counts ----------------------------------------


def expand_leaf(t: TreePatch, leaf: Address, node_budget: int = DEFAULT_NODE_BUDGET) -> TreePatch:
    """Attach the caret of the leaf's type at the leaf; exact bookkeeping:
    interior count grows by I_type and leaf counts by (M - Id) e_type."""
    if leaf not in t.nodes:
        raise ValidationError(f"address {leaf} is not in the patch")
    if not t.is_graph_leaf(leaf):
        raise ValidationError(f"address {leaf} is not a leaf")
    entry = t.system.entry_of(leaf)
    if entry is None or entry not in t.system.gates:
        raise ValidationError(f"leaf {leaf} has no gate type (entry {entry})")
    new = _expand_vertex(t.system, t.nodes, leaf, entry, node_budget)
    return TreePatch(t.system, t.nodes | new, t.marked)


def history(t: TreePatch, t0: TreePatch) -> History:
    """The expansion multiset recovering ``t`` from ``t0``, as a vector.

    The expansion vertices are exactly the interior vertices of ``t`` that
    are not interior in ``t0`` and whose entry half-edge is a gate, so the
    vector is independent of any recovery order.
    """
    if t.system != t0.system:
        raise ValidationError("patches come from incompatible enumerations")
    if not t0.nodes <= t.nodes:
        raise ValidationError("t0 is not a subtree of t")
    t0.require_admissible("t0")
    t.require_admissible("t")
    gs = t.system.gates
    n = [0] * gs.k
    t0_interior = t0.interior_addresses
    for addr in t.interior_addresses:
        if addr in t0_interior:
            continue
        e = t.system.entry_of(addr)
        if e is not None and e in gs:
            n[gs.type_index(e)] += 1
    return History(tuple(n))


def tree_union(t1: TreePatch, t2: TreePatch) -> TreePatch:
    if t1.system != t2.system:
        raise ValidationError("patches come from incompatible enumerations")
    t1.require_admissible("first patch")
    t2.require_admissible("second patch")
    out = TreePatch(t1.system, t1.nodes | t2.nodes, (t1.marked | t2.marked))
    if not out.is_admissible():
        raise InvariantViolation("union of admissible patches is not admissible")
    return out


def tree_intersection(t1: TreePatch, t2: TreePatch) -> TreePatch:
    if t1.system != t2.system:
        raise ValidationError("patches come from incompatible enumerations")
    t1.require_admissible("first patch")
    t2.require_admissible("second patch")
    nodes = t1.nodes & t2.nodes
    out = TreePatch(t1.system, nodes, (t1.marked | t2.marked) & nodes)
    if not out.is_admissible():
        raise InvariantViolation("intersection of admissible patches is not admissible")
    return out


# -- enumeration -----------------------------------------------------------


def _typed_leaves_raw(system: TreeSystem, nodes: frozenset[Address]) -> list[tuple[Address, HalfEdge]]:
    parents = {a[:-1] for a in nodes if a}
    gate_index = system.gates._index
    targets = system._step_targets
    out = []
    for a in nodes:
        if a and a not in parents:
            e = targets[a[-1][0]][1]
            if e in gate_index:
                out.append((a, e))
    out.sort()
    return out


def enumerate_admissible(
    g: GraphOfGroups,
    gs: GateSystem,
    t0: TreePatch,
    max_expansions: int,
    max_trees: int = DEFAULT_TREE_BUDGET,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> list[TreePatch]:
    """All admissible patches obtainable from t0 by at most ``max_expansions``
    leaf expansions, deduplicated by value.

    Two expansion sequences yield the same patch exactly when they expand
    the same vertex multiset, so breadth-first search over node sets with
    set-dedup is exact.
    """
    if t0.system.graph != g or t0.system.gates != gs:
        raise ValidationError("t0 belongs to a different system")
    t0.require_admissible("t0")
    system = t0.system
    seen: set[frozenset[Address]] = {t0.nodes}
    frontier = [t0.nodes]
    for _ in range(max_expansions):
        nxt: list[frozenset[Address]] = []
        for nodes in frontier:
            for leaf, entry in _typed_leaves_raw(system, nodes):
                grown = nodes | _expand_vertex(system, nodes, leaf, entry, node_budget)
                fz = frozenset(grown)
                if fz not in seen:
                    seen.add(fz)
                    if len(seen) > max_trees:
                        raise CapExceeded(
                            f"enumeration exceeded the cap of {max_trees} trees"
                        )
                    nxt.append(fz)
        frontier = nxt
    patches = [TreePatch(system, nodes, t0.marked) for nodes in seen]
    patches.sort(key=TreePatch.sort_key)
    return patches


# -- interval lattices -------------------------------------------------------


@dataclass(frozen=True)
class IntervalLattice:
    """The admissible trees between t and an elementary expansion of t.

    Elements correspond to subsets of the attached carets, ordered by
    inclusion: a Boolean lattice of rank = number of carets.
    """

    bottom: TreePatch
    top: TreePatch
    caret_leaves: tuple[Address, ...]
    elements: tuple[TreePatch, ...]

    @property
    def rank(self) -> int:
        return len(self.caret_leaves)

    @property
    def size(self) -> int:
        return len(self.elements)


def interval_lattice(t: TreePatch, t_prime: TreePatch) -> IntervalLattice:
    """Build the interval between ``t`` and an elementary expansion ``t_prime``.

    Raises ValidationError when the top is not obtained from the bottom by
    attaching disjoint carets at leaves of the bottom (e.g. a caret grown
    on another caret's leaf).
    """
    if t.system != t_prime.system:
        raise ValidationError("patches come from incompatible enumerations")
    t.require_admissible("bottom")
    t_prime.require_admissible("top")
    if not t.nodes <= t_prime.nodes:
        raise ValidationError("top does not contain bottom")

    top_parents = {a[:-1] for a in t_prime.nodes if a}
    exp_leaves = [
        (leaf, entry)
        for leaf, entry in _typed_leaves_raw(t.system, t.nodes)
        if leaf in top_parents
    ]
    materials: dict[Address, frozenset[Address]] = {}
    covered: set[Address] = set()
    for leaf, entry in exp_leaves:
        mat = frozenset(_expand_vertex(t.system, t.nodes, leaf, entry))
        if not mat <= t_prime.nodes:
            raise InvariantViolation(
                f"expansion of leaf {leaf} is not contained in the top patch"
            )
        materials[leaf] = mat
        covered |= mat
    extra = t_prime.nodes - t.nodes - covered
    if extra:
        raise ValidationError(
            "top is not an elementary expansion of bottom: it contains material "
            f"beyond whole carets at bottom leaves (e.g. at {sorted(extra)[0]})"
        )
    leaves = tuple(sorted(materials))
    elements = []
    for r in range(len(leaves) + 1):
        for subset in itertools.combinations(leaves, r):
            nodes = set(t.nodes)
            for leaf in subset:
                nodes |= materials[leaf]
            elements.append(TreePatch(t.system, frozenset(nodes), t.marked))
    elements.sort(key=TreePatch.sort_key)
    return IntervalLattice(t, t_prime, leaves, tuple(elements))


# -- viral expansion property -------------------------------------------------


@dataclass(frozen=True)
class ViralReport:
    """Verdict of the viral-property check, with an optional repair.

    ``passed`` refers to the input pair (gates, base tree); when only leaf
    counts are deficient the report may carry a repaired pair obtained by
    dropping never-occurring gate types and growing the base tree.
    """

    passed: bool
    reasons: tuple[str, ...]
    diagonal: tuple[int, ...]
    base_leaves: tuple[int, ...]
    dropped: tuple[HalfEdge, ...]
    repaired_gates: GateSystem | None
    repaired_base: TreePatch | None
    repair_trace: tuple[str, ...]
    table: CaretTable

    def to_json_dict(self) -> dict:
        return {
            "passed": self.passed,
            "reasons": list(self.reasons),
            "M_diagonal": list(self.diagonal),
            "base_leaf_counts": list(self.base_leaves),
            "dropped_gates": [str(h) for h in self.dropped],
            "repaired": self.repaired_gates is not None,
            "repaired_gates": [str(h) for h in self.repaired_gates.gates]
            if self.repaired_gates
            else None,
            "repair_trace": list(self.repair_trace),
        }


def _occurring_types(table: CaretTable, base: CountVector) -> set[int]:
    k = len(table.gates)
    occ = {i for i in range(k) if base.leaves[i] > 0}
    changed = True
    while changed:
        changed = False
        for j in list(occ):
            for i in range(k):
                if table.M[i][j] > 0 and i not in occ:
                    occ.add(i)
                    changed = True
    return occ


def check_viral(
    g: GraphOfGroups,
    gs: GateSystem,
    t0: TreePatch,
    repair_budget: int = DEFAULT_REPAIR_BUDGET,
) -> ViralReport:
    """Check M_ii >= 3 for every gate type and L_i(t0) >= 2.

    When the diagonal is fine but some leaf counts are small, attempt the
    standard repair: drop gate types that never occur as leaves of
    reachable trees (their carets are unaffected because no reachable
    growth passes through them), then greedily expand the base tree until
    every remaining type has at least two leaves.  Failures are reported,
    not raised.
    """
    t0.require_admissible("t0")
    if t0.system.graph != g or t0.system.gates != gs:
        raise ValidationError("t0 belongs to a different system")
    table = caret_table(g, gs)
    base = t0.counts()
    k = gs.k
    diag = tuple(table.M[i][i] for i in range(k))
    m_fail = [i for i in range(k) if diag[i] < 3]
    l_fail = [i for i in range(k) if base.leaves[i] < 2]
    reasons = [f"M_{i + 1}{i + 1} = {diag[i]}" for i in m_fail]
    reasons += [f"L_{i + 1}(T0) = {base.leaves[i]}" for i in l_fail]
    passed = not m_fail and not l_fail

    dropped: tuple[HalfEdge, ...] = ()
    repaired_gates = None
    repaired_base = None
    trace: list[str] = []

    if not passed and not m_fail:
        occ = _occurring_types(table, base)
        drop_idx = [i for i in range(k) if i not in occ]
        dropped = tuple(gs.gates[i] for i in drop_idx)
        kept = [gs.gates[i] for i in range(k) if i in occ]
        gs2 = GateSystem(g, tuple(kept)) if drop_idx else gs
        if drop_idx:
            trace.append(
                "dropped never-occurring gate types: " + ", ".join(str(h) for h in dropped)
            )
        cert2 = is_admissible(g, gs2)
        if not cert2.admissible:
            trace.append("repair failed: reduced gate system is inadmissible")
        else:
            system2 = TreeSystem(g, gs2, t0.system.root)
            t2 = TreePatch(system2, t0.nodes, t0.marked)
            table2 = caret_table(g, gs2) if drop_idx else table
            if any(table2.M[i][i] < 3 for i in range(gs2.k)):
                raise InvariantViolation(
                    "dropping never-occurring gate types changed a kept caret"
                )
            budget = repair_budget
            ok = True
            while budget >= 0:
                cur = t2.counts().leaves
                deficient = [i for i in range(gs2.k) if cur[i] < 2]
                if not deficient:
                    break
                if budget == 0:
                    ok = False
                    trace.append(
                        f"repair failed: budget of {repair_budget} expansions exhausted "
                        f"with deficient types {[str(gs2.gates[i]) for i in deficient]}"
                    )
                    break
                target = deficient[0]
                if cur[target] >= 1:
                    pick = target
                else:
                    # shortest production chain: expanding type a creates
                    # type-b leaves when M2[b][a] > 0
                    dist = {target: 0}
                    frontier = [target]
                    pick = None
                    while frontier and pick is None:
                        nxt = []
                        for b in frontier:
                            for a in range(gs2.k):
                                if table2.M[b][a] > 0 and a not in dist:
                                    dist[a] = dist[b] + 1
                                    nxt.append(a)
                                    if cur[a] >= 1:
                                        pick = a
                                        break
                            if pick is not None:
                                break
                        frontier = nxt
                    if pick is None:
                        ok = False
                        trace.append(
                            f"repair failed: no production chain reaches type "
                            f"{gs2.gates[target]}"
                        )
                        break
                leaf = min(a for a, e in t2.typed_leaves() if e == gs2.gates[pick])
                t2 = expand_leaf(t2, leaf)
                budget -= 1
                trace.append(f"expanded a leaf of type {gs2.gates[pick]}")
            if ok and all(c >= 2 for c in t2.counts().leaves):
                repaired_gates = gs2
                repaired_base = t2

    return ViralReport(
        passed=passed,
        reasons=tuple(reasons),
        diagonal=diag,
        base_leaves=base.leaves,
        dropped=dropped,
        repaired_gates=repaired_gates,
        repaired_base=repaired_base,
        repair_trace=tuple(trace),
        table=table,
    )


# -- export ---------------------------------------------------------------


def patch_to_dot(t: TreePatch, name: str = "patch") -> str:
    """Deterministic DOT rendering: vertices carry their graph labels,
    leaves their entry half-edge and gate type."""
    gs = t.system.gates
    nodes = sorted(t.nodes)
    ids = {addr: f"n{i}" for i, addr in enumerate(nodes)}
    lines = [f"graph {name} {{", "  node [shape=circle];"]
    for addr in nodes:
        label = t.system.label_of(addr)
        if t.is_graph_leaf(addr):
            entry = t.system.entry_of(addr)
            if entry is None:
                extra = "\\nleaf (untyped)"
            elif entry in gs:
                extra = f"\\nleaf {entry} (type {gs.type_index(entry) + 1})"
            else:
                extra = f"\\nleaf {entry} (no gate)"
        else:
            extra = ""
        lines.append(f'  {ids[addr]} [label="{label}{extra}"];')
    for addr in nodes:
        if addr:
            h, i = addr[-1]
            lines.append(f'  {ids[addr[:-1]]} -- {ids[addr]} [label="{h.edge}[{i}]"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
