"""Finite admissible subtrees of the local tree model.

Instead of materialising the infinite tree, a patch lives in a
deterministic ambient enumeration rooted at a chosen vertex: the
children of a vertex are ordered by (half-edge, lift index), the edge to
child ``(h, i)`` exits through half-edge ``h`` and is entered at the
child through ``opp(h)``, its *entry*, so a vertex is named by its
*address*, the tuple of steps from the root.  The tree system numbers
entries by their place among the sorted half-edges and steps by their
place among the sorted (half-edge, lift) pairs, so addresses are tuples
of ints and the hot paths read only integer tables.  The numbering keeps
the order, so sorted addresses keep the order of the pair form.

Every vertex of a patch is either a leaf or has all its children, so a
patch is fixed by its interior: any prefix-closed set of addresses whose
steps are child steps of their parents.  It stores that set, its leaf
list, its admissibility and its counts.  The nodes are the interior plus
the children of interior vertices (the bare root when the interior is
empty).  A vertex is interior in a union or intersection of two patches
exactly when it is interior in one or in both of them, so unions,
intersections, containment and deduplication are plain set operations on
interior sets, which are several times smaller than node sets.

Growth below a vertex depends only on the vertex's entry, so the tree
system keeps one caret shape per entry, built on first use: the forced
completion below a vertex with that entry, as addresses relative to it,
its leaves with their entries, and the count delta it adds.  A vertex's
entry is a function of its address (of its last step), so the shape
placed at an address (``CaretShape.place``) is a value of the address
alone.  An enumeration places each leaf's caret once, and every patch
growing that leaf shares the placed leaf tuples: growth is one copy of
the parent's leaf list plus an O(k) count update.
``TreePatch(system, interior)`` validates its interior and walks it for
the leaves.  Patches grown or combined from other patches (``_grow``,
``_combine``) take their interior, leaves and admissibility from their
operands and the shape table, with no walk and no re-validation; grown
patches also take their counts from their parent's, and the others take
a leaf census when first asked.

Admissible patches additionally have every leaf entered through a gate,
so their root is always interior.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from operator import add, itemgetter

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

Step = int
Address = tuple[Step, ...]
Leaf = tuple[Address, int]

NODE_BUDGET = 1_000_000
DEFAULT_TREE_BUDGET = 200_000
DEFAULT_REPAIR_BUDGET = 32


@dataclass(frozen=True)
class TreeSystem:
    """Shared ambient context: graph, gate system and root vertex.

    Two patches can be combined only if their systems are equal; this is
    what "embedded in a common ambient enumeration" means operationally.
    The system numbers the model once, in five tables: ``entries`` (the
    sorted half-edges, then None for the root), ``steps`` (the sorted
    (half-edge, lift) pairs), ``children[entry]`` (the child steps of a
    vertex with that entry, each mapped to the child's entry),
    ``gate_type[entry]`` (None for a non-gate) and ``step_entry[step]``;
    ``ungated``, the set of entries with no gate type, is read off
    ``gate_type``.  Step numbers depend on the graph alone.  The caret
    shape of each entry (``shape``) is filled one entry at a time, on
    first use, so a shape over the node budget raises only where it is
    grown.
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
        g = self.graph
        halves = g.half_edges()
        entries = halves + (None,)
        steps = tuple((h, i) for h in halves for i in range(g.index(h)))
        entry_no = {h: n for n, h in enumerate(entries)}
        step_no = {s: n for n, s in enumerate(steps)}
        # a vertex has index(h) lifts of each half-edge h at its label, one
        # fewer for the half-edge it was entered through
        children = tuple(
            {
                step_no[h, i]: entry_no[h.opposite()]
                for h in g.halfedges_at(self.root if e is None else g.vertex_of(e))
                for i in range(g.index(h) - (h == e))
            }
            for e in entries
        )
        # the dataclass is frozen, so the tables go straight into __dict__
        gate_type = tuple(self.gates.type_index(e) if e in self.gates else None for e in entries)
        vars(self).update(
            entries=entries,
            steps=steps,
            children=children,
            gate_type=gate_type,
            ungated=frozenset(n for n, ty in enumerate(gate_type) if ty is None),
            step_entry=tuple(entry_no[h.opposite()] for h, _ in steps),
            _shapes={},
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

    def entry_of(self, addr: Address) -> int:
        """The entry number of the vertex at ``addr``."""
        return self.step_entry[addr[-1]] if addr else len(self.entries) - 1

    def label_of(self, addr: Address) -> str:
        entry = self.entries[self.entry_of(addr)]
        return self.root if entry is None else self.graph.vertex_of(entry)

    def shape(self, entry: int, at: Address) -> CaretShape:
        """The caret shape of ``entry``, built on first use by
        ``_build_shape``; ``at``, where it is being grown, names the vertex
        in a node-budget error."""
        shape = self._shapes.get(entry)
        if shape is None:
            shape = self._shapes[entry] = _build_shape(self, entry, at)
        return shape


def _leaves(system: TreeSystem, interior: frozenset[Address] | set[Address]) -> list[Leaf]:
    """The leaves of an interior set by definition, for patches with no parent
    patch: the non-interior children of interior vertices with their entry
    numbers, in no particular order, or the bare root if the set is empty."""
    if not interior:
        return [((), system.entry_of(()))]
    children, step_entry = system.children, system.step_entry
    root_children = children[-1]  # the root's entry comes last
    out = []
    for a in interior:
        for step, entry in (children[step_entry[a[-1]]] if a else root_children).items():
            child = a + (step,)
            if child not in interior:
                out.append((child, entry))
    return out


def _gated(system: TreeSystem, leaves: list[Leaf]) -> bool:
    """Whether every leaf is entered through a gate."""
    return system.ungated.isdisjoint(map(itemgetter(1), leaves))


@dataclass(frozen=True)
class TreePatch:
    """A finite subtree of the ambient model, stored by its interior
    addresses, with value semantics.

    ``TreePatch(system, interior)`` is the public constructor and the
    definition: it checks that the interior is prefix-closed and that each
    step is a child step of its parent, then walks the interior for its
    leaf list (``_leaves``) and admissibility.  Patches grown or combined
    from other patches come from ``TreePatch._derived``, which checks and
    walks nothing: ``_grow`` and ``_combine`` prove that what they pass is
    what this constructor would compute.  Grown patches also carry their
    counts; other patches take their leaf census on the first ``counts()``.
    """

    system: TreeSystem
    interior: frozenset[Address]

    def __post_init__(self):
        system = self.system
        interior = self.interior
        # parents first, so each parent's entry is known to be valid
        for addr in sorted(interior, key=len):
            if not addr:
                continue
            parent = addr[:-1]
            if parent not in interior:
                raise ValidationError(f"interior set is not prefix-closed at {addr}")
            if addr[-1] not in system.children[system.entry_of(parent)]:
                raise ValidationError(
                    f"step {addr[-1]!r} is not a child step of the vertex at {parent} "
                    f"(label {system.label_of(parent)!r})"
                )
        leaves = _leaves(system, interior)
        self._set_derived(leaves, _gated(system, leaves), None)

    def _set_derived(self, leaves: list[Leaf], admissible: bool, counts: CountVector | None) -> None:
        # the dataclass is frozen; setting the attributes one by one, in one
        # order, keeps each instance's values in the class's shared key table
        object.__setattr__(self, "_leaf_list", leaves)
        object.__setattr__(self, "_admissible", admissible)
        object.__setattr__(self, "_counts", counts)

    @classmethod
    def _derived(
        cls,
        system: TreeSystem,
        interior: frozenset[Address],
        leaves: list[Leaf],
        admissible: bool,
        counts: CountVector | None,
    ) -> TreePatch:
        """A patch whose validity, leaf list, admissibility and counts (None:
        not taken yet) its caller has proved; nothing is checked or walked."""
        t = object.__new__(cls)
        object.__setattr__(t, "system", system)
        object.__setattr__(t, "interior", interior)
        t._set_derived(leaves, admissible, counts)
        return t

    # -- structure ---------------------------------------------------------

    @cached_property
    def nodes(self) -> frozenset[Address]:
        """The interior plus its leaves."""
        return self.interior.union(a for a, _ in self._leaf_list)

    @property
    def size(self) -> int:
        return len(self.interior) + len(self._leaf_list)

    def is_graph_leaf(self, addr: Address) -> bool:
        return addr in self.nodes and addr not in self.interior

    def leaves(self) -> tuple[tuple[Address, HalfEdge | None], ...]:
        """All graph leaves, sorted, with their entry half-edges (None at
        the root)."""
        entries = self.system.entries
        return tuple((a, entries[e]) for a, e in sorted(self._leaf_list))

    def typed_leaves(self) -> list[tuple[Address, HalfEdge]]:
        """Leaves whose entry half-edge is a gate, i.e. admissible leaves."""
        return [(a, e) for a, e in self.leaves() if e in self.system.gates]

    def is_admissible(self) -> bool:
        return self._admissible

    def require_admissible(self, what: str = "patch") -> None:
        if not self.is_admissible():
            bad = [(a, e) for a, e in self.leaves() if e not in self.system.gates]
            raise ValidationError(f"{what} is not admissible; bad leaves: {bad[:3]}")

    def counts(self) -> CountVector:
        """Interior count and typed-leaf census.

        Leaves without a gate entry (possible only on non-admissible
        patches) are not counted in L.  Taken on first use and kept in a
        plain attribute: ``functools.cached_property`` takes a lock on every
        first read in CPython 3.11.
        """
        counts = self._counts
        if counts is None:
            gate_type = self.system.gate_type
            types = [gate_type[e] for _, e in self._leaf_list]
            counts = CountVector(len(self.interior), tuple(map(types.count, range(self.system.gates.k))))
            object.__setattr__(self, "_counts", counts)
        return counts

    def contains(self, other: "TreePatch") -> bool:
        system = self.system
        return (system is other.system or system == other.system) and other.interior <= self.interior

    def sort_key(self):
        """Size, then sorted interior: the order of (size, sorted nodes).

        For equal sizes, let a be the first address where the sorted
        interiors differ, interior in A but not in B, so A sorts first.
        Earlier addresses have the same status in both, hence the same
        nodes, and a is the root or its parent is interior in both: a is
        interior in A and a leaf of B.  A's next node is a child of a and
        B's lies past a's subtree, so A also sorts first by nodes.  Neither
        interior is a prefix of the other: B's would then be a proper
        subset of A's, and as TreeSystem rejects degree < 2, each extra
        interior vertex adds a node, making A larger.
        """
        return (self.size, tuple(sorted(self.interior)))


# -- growth --------------------------------------------------------------


@dataclass(frozen=True)
class CaretShape:
    """The forced completion below a vertex with a given entry, relative to
    that vertex: its ``interior`` addresses (the vertex itself is ``()``),
    its ``leaves`` with their entry numbers, and ``delta``, what growing it
    at a leaf with that entry adds to the counts: the interior size, then
    the leaf census minus the grown leaf's own type, if it has one.  For a
    gate entry of type j, delta is (I_j, M column j - e_j).

    Placed at an address (``place``), the shape is a value of the address
    alone: the entry is read off the address's last step, and the shape
    off the entry.  So the patches that grow one leaf can share one
    placement, whose leaf tuples equal those each would build."""

    interior: tuple[Address, ...]
    leaves: tuple[Leaf, ...]
    delta: CountVector

    def place(self, addr: Address) -> tuple[frozenset[Address], list[Leaf]]:
        """The shape grown at ``addr``: its interior addresses as a set (a
        set operand sizes the table of a set union once, where an iterable
        would grow it step by step to twice the size), and its leaves."""
        return (
            frozenset([addr + a for a in self.interior]),
            [(addr + a, e) for a, e in self.leaves],
        )


def _build_shape(system: TreeSystem, entry: int, at: Address) -> CaretShape:
    """Grow the caret shape of ``entry``: make the vertex interior and
    recursively expand every child whose entry is not a gate; the other
    children are its leaves.  Termination is exactly admissibility of the
    gate system, which is checked up front.  The walk reads only entry
    numbers below its start, so the shape is the same wherever it grows.
    """
    system.require_admissible()
    children, gate_type = system.children, system.gate_type
    interior: list[Address] = []
    leaves: list[Leaf] = []
    grown = 0
    stack: list[tuple[Address, int]] = [((), entry)]
    while stack:
        a, ent = stack.pop()
        interior.append(a)
        kids = children[ent]
        grown += len(kids)
        if grown > NODE_BUDGET:
            raise CapExceeded(f"growth below {at} exceeded the node budget of {NODE_BUDGET}")
        for step, child_entry in kids.items():
            if gate_type[child_entry] is None:
                stack.append((a + (step,), child_entry))
            else:
                leaves.append((a + (step,), child_entry))
    census = Counter(gate_type[e] for _, e in leaves)
    own = gate_type[entry]
    delta = CountVector(len(interior), tuple(census[i] - (i == own) for i in range(system.gates.k)))
    return CaretShape(tuple(interior), tuple(leaves), delta)


def base_tree(g: GraphOfGroups, gs: GateSystem, seed: "TreePatch | str") -> TreePatch:
    """The minimal admissible patch containing the seed.

    The seed is either an existing patch or a vertex id (which roots the
    ambient enumeration).  Every leaf that is not entered through a gate,
    including a bare root, is expanded; completions leave only gate-entry
    leaves, so one pass suffices, and a seed that is already admissible
    comes back unchanged.
    """
    if isinstance(seed, TreePatch):
        if seed.system.graph != g or seed.system.gates != gs:
            raise ValidationError("seed patch belongs to a different system")
    else:
        seed = TreePatch(TreeSystem(g, gs, root=seed), frozenset())
    system = seed.system
    system.require_admissible()
    grown = set(seed.interior)
    for a, e in seed._leaf_list:
        if system.gate_type[e] is None:
            grown.update(system.shape(e, a).place(a)[0])
    return TreePatch(system, frozenset(grown))


# -- carets ----------------------------------------------------------------


@dataclass(frozen=True)
class Caret:
    """The unique minimal expansion beyond a leaf of a given gate type:
    its terminal-leaf census by entry half-edge and its interior count."""

    gate: HalfEdge
    terminal_leaf_types: tuple[tuple[HalfEdge, int], ...]
    interior_count: int


def caret(g: GraphOfGroups, gs: GateSystem, nu: HalfEdge) -> Caret:
    """Grow the caret of gate type ``nu`` in a system rooted at
    ``vertex_of(opp(nu))`` (see ``_caret``)."""
    if nu not in gs:
        raise ValidationError(f"{nu} is not a gate of the system")
    return _caret(TreeSystem(g, gs, root=g.vertex_of(nu.opposite())), nu)


def _caret(system: TreeSystem, nu: HalfEdge) -> Caret:
    """The caret of gate ``nu``: the shape of entry ``nu``, the vertex
    expanded to full degree and every new leaf whose entry is not a gate
    expanded in turn.  A shape is the same wherever it grows and whatever
    the root is, so it is named, in a node-budget error, at the step
    ``(opp(nu), 0)``, which is entered through ``nu``.
    """
    step = system.steps.index((nu.opposite(), 0))
    shape = system.shape(system.step_entry[step], (step,))
    census = Counter(e for _, e in shape.leaves)
    return Caret(
        gate=nu,
        terminal_leaf_types=tuple((system.entries[e], n) for e, n in sorted(census.items())),
        interior_count=len(shape.interior),
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


def caret_table(g: GraphOfGroups, gs: GateSystem) -> CaretTable:
    """Assemble M and I column-wise from the carets of all gate types,
    grown in one tree system (any root will do, see ``_caret``)."""
    # no gates, no carets: the tree model is neither built nor checked
    system = TreeSystem(g, gs, root=g.vertices[0]) if gs.gates else None
    carets = tuple(_caret(system, nu) for nu in gs.gates)
    columns = [dict(c.terminal_leaf_types) for c in carets]
    m_rows = tuple(tuple(col.get(h, 0) for col in columns) for h in gs.gates)
    return CaretTable(gs.gates, m_rows, tuple(c.interior_count for c in carets), carets)


# -- expansions, histories, counts ----------------------------------------


def expand_leaf(t: TreePatch, leaf: Address) -> TreePatch:
    """Attach the caret of the leaf's type at the leaf; exact bookkeeping:
    interior count grows by I_type and leaf counts by (M - Id) e_type."""
    if leaf not in t.nodes:
        raise ValidationError(f"address {leaf} is not in the patch")
    if not t.is_graph_leaf(leaf):
        raise ValidationError(f"address {leaf} is not a leaf")
    system = t.system
    entry = system.entry_of(leaf)
    if system.gate_type[entry] is None:
        raise ValidationError(f"leaf {leaf} has no gate type (entry {system.entries[entry]})")
    shape = system.shape(entry, leaf)
    mat, placed = shape.place(leaf)
    return _grow(t, t._leaf_list.index((leaf, entry)), t.interior.union(mat), placed, shape.delta)


def _grow(
    t: TreePatch, i: int, interior: frozenset[Address], placed: list[Leaf], delta: CountVector
) -> TreePatch:
    """``t`` grown to ``interior`` by a shape placed at its ``i``-th listed
    leaf, which has a gate type, built by ``TreePatch._derived``;
    ``placed`` is the shape's placed leaf list and ``delta`` its count
    delta.

    The child's leaf list is one copy of t's less the grown leaf, then
    the placed leaves.  Their tuples are shared, not copied: a placement
    is a value of the leaf's address (see ``CaretShape``) and tuples are
    immutable, so each patch growing that leaf gets a list equal to the
    one it would build for itself.

    Let C be the shape's addresses placed at the leaf l.  The shape walk
    starts at l with l's entry and appends to each vertex only child steps
    of that vertex's entry, whose child then has the entry the step leads
    to; l's own parent is interior in t, since l is a leaf.  So the union
    with the prefix-closed interior of t is prefix-closed and every step is
    a child step of its parent.  Nothing of t lies below l, so the
    children of C's vertices that are not in C are exactly the shape's
    leaves placed at l, and the only child of an interior vertex of t that
    enters C is l: the leaves are leaves(t) - {l} plus the placed leaves.
    The interior grows by |C|, and the census loses l's type and gains the
    shape's leaves, all of which have gate types: the counts grow by the
    shape's delta, and the patch is admissible exactly when t is.
    """
    leaves = t._leaf_list.copy()
    del leaves[i]
    leaves += placed
    counts = t.counts()
    counts = CountVector(counts.interior + delta.interior, tuple(map(add, counts.leaves, delta.leaves)))
    return TreePatch._derived(t.system, interior, leaves, t._admissible, counts)


def history(t: TreePatch, t0: TreePatch) -> History:
    """The expansion multiset recovering ``t`` from ``t0``, as a vector.

    The expansion vertices are exactly the interior vertices of ``t`` that
    are not interior in ``t0`` and whose entry half-edge is a gate, so the
    vector is independent of any recovery order.
    """
    if t.system is not t0.system and t.system != t0.system:
        raise ValidationError("patches come from incompatible enumerations")
    if not t0.interior <= t.interior:
        raise ValidationError("t0 is not a subtree of t")
    t0.require_admissible("t0")
    t.require_admissible("t")
    gate_type, step_entry = t.system.gate_type, t.system.step_entry
    # t0 is admissible, so its interior holds the root
    census = Counter(gate_type[step_entry[a[-1]]] for a in t.interior - t0.interior)
    return History(tuple(census[i] for i in range(t.system.gates.k)))


def _combine(t1: TreePatch, t2: TreePatch, union: bool) -> TreePatch:
    """The union or intersection of admissible patches, its leaf list derived
    from theirs and built by ``TreePatch._derived``.

    Unions and intersections of prefix-closed sets are prefix-closed, and
    whether an address's last step is a child step of its parent does not
    depend on the patch, so the result needs no validation.  Interiors hold
    the root and are prefix-closed, so a vertex is a node of t exactly when
    it or its parent is interior in t.  A leaf of I1 | I2 is a leaf of t1
    not in I2 or a leaf of t2 not a node of t1; a leaf of I1 & I2 is a leaf
    of t1 that is a node of t2 or a leaf of t2 in I1.  Each such vertex is
    a leaf of the result, and the two kinds are disjoint.  The result is
    admissible by theorem; that is checked on the derived list on every
    call, and its census waits for the first ``counts()``."""
    system = t1.system
    if system is not t2.system and system != t2.system:
        raise ValidationError("patches come from incompatible enumerations")
    t1.require_admissible("first patch")
    t2.require_admissible("second patch")
    i1, i2 = t1.interior, t2.interior
    if union:
        n1 = t1.nodes
        leaves = [x for x in t1._leaf_list if x[0] not in i2]
        leaves += [x for x in t2._leaf_list if x[0] not in n1]
        interior = i1 | i2
    else:
        n2 = t2.nodes
        leaves = [x for x in t1._leaf_list if x[0] in n2]
        leaves += [x for x in t2._leaf_list if x[0] in i1]
        interior = i1 & i2
    out = TreePatch._derived(system, interior, leaves, _gated(system, leaves), None)
    if not out.is_admissible():
        what = "union" if union else "intersection"
        raise InvariantViolation(f"{what} of admissible patches is not admissible")
    return out


def tree_union(t1: TreePatch, t2: TreePatch) -> TreePatch:
    return _combine(t1, t2, union=True)


def tree_intersection(t1: TreePatch, t2: TreePatch) -> TreePatch:
    return _combine(t1, t2, union=False)


# -- enumeration -----------------------------------------------------------


def enumerate_admissible(
    g: GraphOfGroups,
    gs: GateSystem,
    t0: TreePatch,
    max_expansions: int,
    max_trees: int = DEFAULT_TREE_BUDGET,
) -> list[TreePatch]:
    """All admissible patches obtainable from t0 by at most ``max_expansions``
    leaf expansions, deduplicated by value.

    Two expansion sequences yield the same patch exactly when they expand
    the same vertex multiset, so breadth-first search over interior sets
    with set-dedup is exact.  Every leaf of an admissible patch has a gate
    type, so every leaf is expandable.  Each leaf is placed once per call
    and the placement shared (see ``CaretShape``).
    """
    if t0.system.graph != g or t0.system.gates != gs:
        raise ValidationError("t0 belongs to a different system")
    t0.require_admissible("t0")
    shape = t0.system.shape
    placements: dict[Address, tuple[frozenset[Address], list[Leaf], CountVector]] = {}
    # each patch carries its leaf list, which both growth and sorting read
    seen: dict[frozenset[Address], TreePatch] = {t0.interior: t0}
    frontier = [t0]
    for _ in range(max_expansions):
        nxt: list[TreePatch] = []
        for t in frontier:
            for i, (leaf, entry) in enumerate(t._leaf_list):
                placement = placements.get(leaf)
                if placement is None:
                    caret = shape(entry, leaf)
                    placement = placements[leaf] = (*caret.place(leaf), caret.delta)
                mat, placed, delta = placement
                grown = t.interior.union(mat)
                if grown not in seen:
                    seen[grown] = _grow(t, i, grown, placed, delta)
                    if len(seen) > max_trees:
                        raise CapExceeded(
                            f"enumeration exceeded the cap of {max_trees} trees"
                        )
                    nxt.append(seen[grown])
        frontier = nxt
    return sorted(seen.values(), key=TreePatch.sort_key)


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
    system = t.system
    if system is not t_prime.system and system != t_prime.system:
        raise ValidationError("patches come from incompatible enumerations")
    t.require_admissible("bottom")
    t_prime.require_admissible("top")
    if not t.interior <= t_prime.interior:
        raise ValidationError("top does not contain bottom")

    carets: dict[Address, tuple[int, frozenset[Address], list[Leaf], CountVector]] = {}
    covered: set[Address] = set()
    for leaf, entry in t._leaf_list:
        if leaf not in t_prime.interior:
            continue
        shape = system.shape(entry, leaf)
        mat, placed = shape.place(leaf)
        if not mat <= t_prime.interior:
            raise InvariantViolation(
                f"expansion of leaf {leaf} is not contained in the top patch"
            )
        carets[leaf] = entry, mat, placed, shape.delta
        covered |= mat
    extra = t_prime.interior - t.interior - covered
    if extra:
        raise ValidationError(
            "top is not an elementary expansion of bottom: it contains material "
            f"beyond whole carets at bottom leaves (e.g. at {sorted(extra)[0]})"
        )
    leaves = tuple(sorted(carets))
    # one element per subset of the carets: a leaf of t stays a leaf of
    # every element that has not grown it
    elements = [t]
    for leaf in leaves:
        entry, mat, placed, delta = carets[leaf]
        elements += [
            _grow(e, e._leaf_list.index((leaf, entry)), e.interior | mat, placed, delta)
            for e in elements
        ]
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
    if repair_budget < 0:
        raise ValidationError(f"repair budget must be nonnegative, got {repair_budget}")
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
            t2 = TreePatch(system2, t0.interior)
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
    system = t.system
    nodes = sorted(t.nodes)
    ids = {addr: f"n{i}" for i, addr in enumerate(nodes)}
    lines = [f"graph {name} {{", "  node [shape=circle];"]
    for addr in nodes:
        label = system.label_of(addr)
        if t.is_graph_leaf(addr):
            e = system.entry_of(addr)
            entry, ty = system.entries[e], system.gate_type[e]
            if entry is None:
                extra = "\\nleaf (untyped)"
            elif ty is not None:
                extra = f"\\nleaf {entry} (type {ty + 1})"
            else:
                extra = f"\\nleaf {entry} (no gate)"
        else:
            extra = ""
        lines.append(f'  {ids[addr]} [label="{label}{extra}"];')
    for addr in nodes:
        if addr:
            h, i = system.steps[addr[-1]]
            lines.append(f'  {ids[addr[:-1]]} -- {ids[addr]} [label="{h.edge}[{i}]"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
