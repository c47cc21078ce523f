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
addresses, its admissibility and its counts in slots, and is equal to
the patches with its system and interior.  The nodes are the interior
plus the children of interior vertices (the bare root, the one address
with no last step, when the interior is empty).  A vertex's entry, and
so its gate type, is read off its address's last step.  A vertex is
interior in a union or intersection of two patches exactly when it is
interior in one or in both of them, so unions, intersections,
containment and equality are plain set operations on interior sets,
which are several times smaller than node sets.  An enumeration needs
no deduplication at all: it grows each patch once, from its parent in
a canonical order (see ``enumerate_admissible``).

Growth below a vertex depends only on the vertex's entry, so the tree
system keeps one caret shape per entry, built on first use: the forced
completion below a vertex with that entry and its leaves, as addresses
relative to it, and the count delta it adds.  So the shape placed at an
address (``TreeSystem.place``) is a value of the address alone.  An
enumeration places each leaf's caret once, and every patch growing that
leaf shares the placed leaf addresses: growth is one copy of the
parent's leaf list plus an O(k) count update.  The caret table (M, I) is
read off the shapes of the gate entries.
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
from itertools import filterfalse
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
    ``gate_type[entry]`` (None for a non-gate) and ``step_entry[step]``.
    Two more are read off them for leaf addresses: ``step_type[step]``,
    the gate type of the vertex the step enters, and ``ungated_steps``,
    the steps whose child has no gate type.  Step numbers depend on the
    graph alone.  The caret shape of each entry (see ``place``) is filled
    one entry at a time, on first use, so a shape over the node budget
    raises only where it is grown.
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
        step_entry = tuple(entry_no[h.opposite()] for h, _ in steps)
        step_type = tuple(gate_type[e] for e in step_entry)
        vars(self).update(
            entries=entries,
            steps=steps,
            children=children,
            gate_type=gate_type,
            step_entry=step_entry,
            step_type=step_type,
            ungated_steps=frozenset(s for s, ty in enumerate(step_type) if ty is None),
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

    def place(self, addr: Address) -> tuple[frozenset[Address], list[Address], CountVector]:
        """The caret shape of ``addr``'s entry grown at ``addr``: its
        interior addresses as a set (a set operand sizes the table of a set
        union once, where an iterable would grow it step by step to twice
        the size), its leaves and its count delta.  The shape is built on
        first use by ``_build_shape``, and ``addr`` names the vertex in a
        node-budget error."""
        entry = self.entry_of(addr)
        shape = self._shapes.get(entry)
        if shape is None:
            shape = self._shapes[entry] = _build_shape(self, entry, addr)
        return frozenset([addr + a for a in shape.interior]), [addr + a for a in shape.leaves], shape.delta


def _leaves(system: TreeSystem, interior: frozenset[Address] | set[Address]) -> list[Address]:
    """The leaves of an interior set by definition, for patches with no parent
    patch: the non-interior children of interior vertices, in no particular
    order, or the bare root if the set is empty."""
    if not interior:
        return [()]
    children, step_entry = system.children, system.step_entry
    root_children = children[-1]  # the root's entry comes last
    out = []
    for a in interior:
        for step in children[step_entry[a[-1]]] if a else root_children:
            child = a + (step,)
            if child not in interior:
                out.append(child)
    return out


def _gated(system: TreeSystem, leaves: list[Address]) -> bool:
    """Whether every leaf, none of them the bare root, enters through a gate;
    always, with no leaf walked, when every step does."""
    ungated = system.ungated_steps
    return not ungated or ungated.isdisjoint(map(itemgetter(-1), leaves))


class TreePatch:
    """A finite subtree of the ambient model, stored by its interior
    addresses, with value semantics: equal and hashed by
    ``(system, interior)``, and immutable by convention, as
    ``fractions.Fraction`` is.

    ``TreePatch(system, interior)`` is the public constructor and the
    definition: it checks that the interior is prefix-closed and that each
    step is a child step of its parent, then walks the interior for its
    leaf list (``_leaves``) and admissibility.  Patches grown or combined
    from other patches come from ``TreePatch._derived``, which checks and
    walks nothing: ``_grow`` and ``_combine`` prove that what they pass is
    what this constructor would compute.  Grown patches also carry their
    counts; other patches take their leaf census on the first ``counts()``.

    The class declares ``__slots__``, so a patch has no instance dict: its
    two fields and four derived values (leaf list, admissibility, counts
    and nodes) sit in fixed slots, which copy and pickle carry by
    Python's default slot handling.  ``nodes`` and ``counts()`` are taken
    on first read and kept in their slots.
    """

    __slots__ = ("system", "interior", "_leaf_list", "_admissible", "_counts", "_nodes")

    def __init__(self, system: TreeSystem, interior: frozenset[Address]):
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
        self.system = system
        self.interior = interior
        self._leaf_list = leaves = _leaves(system, interior)
        # the bare root, the leaf of the empty interior, has no gate type
        self._admissible = bool(interior) and _gated(system, leaves)
        self._counts = self._nodes = None

    @classmethod
    def _derived(
        cls,
        system: TreeSystem,
        interior: frozenset[Address],
        leaves: list[Address],
        admissible: bool,
        counts: CountVector | None,
    ) -> TreePatch:
        """A patch whose validity, leaf list, admissibility and counts (None:
        not taken yet) its caller has proved; nothing is checked or walked."""
        t = object.__new__(cls)
        t.system, t.interior, t._leaf_list = system, interior, leaves
        t._admissible, t._counts, t._nodes = admissible, counts, None
        return t

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.system, self.interior) == (other.system, other.interior)

    def __hash__(self):
        return hash((self.system, self.interior))

    def __repr__(self):
        return f"TreePatch(system={self.system!r}, interior={self.interior!r})"

    # -- structure ---------------------------------------------------------

    @property
    def nodes(self) -> frozenset[Address]:
        """The interior plus its leaves, taken on first use."""
        nodes = self._nodes
        if nodes is None:
            nodes = self._nodes = self.interior.union(self._leaf_list)
        return nodes

    @property
    def size(self) -> int:
        return len(self.interior) + len(self._leaf_list)

    def is_graph_leaf(self, addr: Address) -> bool:
        return addr in self.nodes and addr not in self.interior

    def leaves(self) -> tuple[tuple[Address, HalfEdge | None], ...]:
        """All graph leaves, sorted, with their entry half-edges (None at
        the root)."""
        entries, entry_of = self.system.entries, self.system.entry_of
        return tuple((a, entries[entry_of(a)]) for a in sorted(self._leaf_list))

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
        patches) are not counted in L.  Taken on first use and kept in its
        slot.
        """
        counts = self._counts
        if counts is None:
            step_type = self.system.step_type
            # the bare root, the leaf of the empty interior, has no last step
            types = [step_type[a[-1]] for a in self._leaf_list] if self.interior else []
            census = tuple(map(types.count, range(self.system.gates.k)))
            counts = self._counts = CountVector(len(self.interior), census)
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
    its ``leaves`` addresses, and ``delta``, what growing it at a leaf with
    that entry adds to the counts: the interior size, then the leaf census
    minus the grown leaf's own type, if it has one.  For a gate entry of
    type j, delta is (I_j, M column j - e_j), and ``caret_table`` reads
    M and I off it.

    Placed at an address (``TreeSystem.place``), the shape is a value of
    the address alone: the entry is read off the address's last step, and
    the shape off the entry.  So the patches that grow one leaf can share
    one placement, whose leaf addresses equal those each would build."""

    interior: tuple[Address, ...]
    leaves: tuple[Address, ...]
    delta: CountVector


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
    leaves: list[Address] = []
    census = [0] * system.gates.k
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
            ty = gate_type[child_entry]
            if ty is None:
                stack.append((a + (step,), child_entry))
            else:
                leaves.append(a + (step,))
                census[ty] += 1
    own = gate_type[entry]
    if own is not None:
        census[own] -= 1
    return CaretShape(tuple(interior), tuple(leaves), CountVector(len(interior), tuple(census)))


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
    for a in seed._leaf_list:
        if system.gate_type[system.entry_of(a)] is None:
            grown.update(system.place(a)[0])
    return TreePatch(system, frozenset(grown))


# -- carets ----------------------------------------------------------------


@dataclass(frozen=True)
class CaretTable:
    """One caret per gate type; M[i][j] = type-i terminal leaves of caret j."""

    gates: tuple[HalfEdge, ...]
    M: tuple[tuple[int, ...], ...]
    I: tuple[int, ...]

    def column(self, j: int) -> tuple[int, ...]:
        return tuple(self.M[i][j] for i in range(len(self.gates)))

    def to_json_dict(self) -> dict:
        return {
            "gates": [str(h) for h in self.gates],
            "M": [list(row) for row in self.M],
            "I": list(self.I),
            "carets": [
                {
                    "gate": str(nu),
                    "interior": self.I[j],
                    "terminal_leaves": {str(h): row[j] for h, row in zip(self.gates, self.M) if row[j]},
                }
                for j, nu in enumerate(self.gates)
            ],
        }


def caret_table(g: GraphOfGroups, gs: GateSystem) -> CaretTable:
    """Read M and I off the shapes of the gate entries, grown in one tree
    system.  The caret of gate nu_j is the shape of entry nu_j, placed at
    the step (opp(nu_j), 0), which is entered through nu_j; a shape is the
    same wherever it grows and whatever the root is, so any root will do,
    and the step names it in a node-budget error.  Its delta is
    (I_j, M column j - e_j)."""
    # no gates, no carets: the tree model is neither built nor checked
    system = TreeSystem(g, gs, root=g.vertices[0]) if gs.gates else None
    deltas = [system.place((system.steps.index((nu.opposite(), 0)),))[2] for nu in gs.gates]
    m_rows = tuple(tuple(d.leaves[i] + (i == j) for j, d in enumerate(deltas)) for i in range(gs.k))
    return CaretTable(gs.gates, m_rows, tuple(d.interior for d in deltas))


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
    mat, placed, delta = system.place(leaf)
    return _grow(t, t._leaf_list.index(leaf), t.interior.union(mat), placed, delta)


def _grow(
    t: TreePatch, i: int, interior: frozenset[Address], placed: list[Address], delta: CountVector
) -> TreePatch:
    """``t`` grown to ``interior`` by a shape placed at its ``i``-th listed
    leaf, which has a gate type, built by ``TreePatch._derived``;
    ``placed`` is the shape's placed leaf list and ``delta`` its count
    delta.

    The child's leaf list is one copy of t's less the grown leaf, then
    the placed leaves.  Their addresses are shared, not copied: a
    placement is a value of the leaf's address (see ``CaretShape``) and
    tuples are immutable, so each patch growing that leaf gets a list
    equal to the one it would build for itself.

    Let C be the shape's addresses placed at the leaf l.  The shape walk
    starts at l with the entry of l's last step and extends each address
    only by child steps of its entry, each leading to the entry of the new
    last step; l's own parent is interior in t, since l is a leaf.  So the
    union with the prefix-closed interior of t is prefix-closed and every
    step is a child step of its parent.  No address of t extends l, so the
    children of C's addresses outside C are exactly the placed leaves, and
    the only child of an interior address of t in C is l: the leaves are
    leaves(t) - {l} plus the placed leaves.  The interior grows by |C|, and
    the census loses the type of l's last step and gains the types of the
    placed leaves, all gate types: the counts grow by the shape's delta,
    and the patch is admissible exactly when t is.
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
    step_type = t.system.step_type
    # t0 is admissible, so its interior holds the root
    census = Counter(step_type[a[-1]] for a in t.interior - t0.interior)
    return History(tuple(census[i] for i in range(t.system.gates.k)))


def _combine(t1: TreePatch, t2: TreePatch, union: bool) -> TreePatch:
    """The union or intersection of admissible patches, its leaf list derived
    from theirs and built by ``TreePatch._derived``.

    Unions and intersections of prefix-closed sets are prefix-closed, and
    whether an address's last step is a child step of its parent does not
    depend on the patch, so the result needs no validation.  Interiors hold
    the root and are prefix-closed, so an address is a node of t exactly
    when it or its parent is interior in t.  A leaf of I1 | I2 is a leaf
    address of t1 not in I2 or a leaf address of t2 not a node of t1; a
    leaf of I1 & I2 is a leaf address of t1 that is a node of t2 or a leaf
    address of t2 in I1.  Each such address is a leaf of the result, and
    the two kinds are disjoint.  No leaf is the bare root, as both
    interiors hold it.  Each kind is one ``filter`` or ``filterfalse`` of
    an operand's leaf list by a set's bound ``__contains__``, so the loop
    and the membership tests run in C and the list keeps the operands'
    order.  The result is admissible by theorem; that is checked on the
    derived list on every call, and its census waits for the first
    ``counts()``.  An operand's ``require_admissible``, which lists its
    bad leaves, runs only when its stored admissibility is false."""
    system = t1.system
    if system is not t2.system and system != t2.system:
        raise ValidationError("patches come from incompatible enumerations")
    if not t1._admissible:
        t1.require_admissible("first patch")
    if not t2._admissible:
        t2.require_admissible("second patch")
    i1, i2 = t1.interior, t2.interior
    l1, l2 = t1._leaf_list, t2._leaf_list
    if union:
        leaves = list(filterfalse(i2.__contains__, l1))
        leaves += filterfalse(t1.nodes.__contains__, l2)
        interior = i1 | i2
    else:
        leaves = list(filter(t2.nodes.__contains__, l1))
        leaves += filter(i1.__contains__, l2)
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
    leaf expansions, each once, sorted by ``TreePatch.sort_key``.

    Every leaf of an admissible patch has a gate type, so every leaf is
    expandable.  A patch t grown from t0 is fixed by its set E of
    expansion roots: the vertices interior in t but not in t0 whose entry
    is a gate (see ``history``), since within a caret only its root is
    entered through a gate.  The search is a reverse search (Avis and
    Fukuda, 1996): each patch is grown from its parent, t with the caret
    at max E removed, by expanding max E, so a frontier patch expands
    only the leaves after its greatest expansion root (``()``, which
    sorts first, for t0), breadth first, and no patch is met twice.  In
    address order:

    1. *E's increasing order is a valid growth sequence.*  Let e be in E.
       The path from the root to e leaves t0's interior at a leaf of t0
       that is e or a prefix of it; each vertex from that leaf to e's
       parent is interior in t and not in t0, so it lies in the caret of
       a root in E that is a prefix of it, hence a proper prefix of e,
       which sorts before e.  So when e's turn comes, its parent is
       interior; e is not, because a caret holds a gate-entered vertex
       as interior only at its root.  e is then a leaf.
    2. *No two increasing sequences give the same patch.*  A sequence
       grows the patch whose E is the sequence's set, and E is read off
       the patch, so two sequences with one patch have one set, and an
       increasing sequence is fixed by its set.
    3. *max E is removable.*  A root below max E would be a proper
       extension of it and sort after it, so no other caret grows below
       it: removing its caret gives the patch of E - {max E}, the prefix
       of E's increasing sequence, with one expansion fewer.

    By 1 and 3, every patch within the budget is grown along its
    increasing sequence, whose prefixes are all within the budget; by 2,
    it is grown only there.  Depth k holds exactly the patches with
    |E| = k, those that k expansions and no fewer reach, which is what
    the held counts of a cap error report.  Each leaf is placed once per
    call and the placement shared (see ``CaretShape``).
    """
    if t0.system.graph != g or t0.system.gates != gs:
        raise ValidationError("t0 belongs to a different system")
    t0.require_admissible("t0")
    place = t0.system.place
    placements: dict[Address, tuple[frozenset[Address], list[Address], CountVector]] = {}
    # each patch carries its leaf list, which both growth and sorting read
    found = [t0]
    # each frontier patch with its greatest expansion root; () sorts first
    frontier: list[tuple[TreePatch, Address]] = [(t0, ())]
    held = [1]  # the trees of each finished depth
    for depth in range(1, max_expansions + 1):
        nxt: list[tuple[TreePatch, Address]] = []
        for t, last in frontier:
            for i, leaf in enumerate(t._leaf_list):
                if leaf <= last:
                    continue
                placement = placements.get(leaf)
                if placement is None:
                    placement = placements[leaf] = place(leaf)
                mat, placed, delta = placement
                grown = _grow(t, i, t.interior.union(mat), placed, delta)
                found.append(grown)
                if len(found) > max_trees:
                    raise CapExceeded(
                        f"enumeration exceeded the cap of {max_trees} trees while growing "
                        f"depth {depth} (depths 0..{depth - 1} held {', '.join(map(str, held))} trees)"
                    )
                nxt.append((grown, leaf))
        frontier = nxt
        held.append(len(nxt))
    return sorted(found, key=TreePatch.sort_key)


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

    carets: dict[Address, tuple[frozenset[Address], list[Address], CountVector]] = {}
    covered: set[Address] = set()
    for leaf in t._leaf_list:
        if leaf not in t_prime.interior:
            continue
        mat, placed, delta = system.place(leaf)
        if not mat <= t_prime.interior:
            raise InvariantViolation(
                f"expansion of leaf {leaf} is not contained in the top patch"
            )
        carets[leaf] = mat, placed, delta
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
        mat, placed, delta = carets[leaf]
        elements += [
            _grow(e, e._leaf_list.index(leaf), e.interior | mat, placed, delta) for e in elements
        ]
    elements.sort(key=TreePatch.sort_key)
    return IntervalLattice(t, t_prime, leaves, tuple(elements))


# -- viral expansion property -------------------------------------------------


@dataclass(frozen=True)
class ViralReport:
    """Verdict of the viral-property check, with an optional repair.

    ``passed`` refers to the input pair (gates, base tree); when only leaf
    counts are deficient the report may carry a repaired base tree, grown
    from the input one, in which every gate type has at least two leaves.
    """

    passed: bool
    reasons: tuple[str, ...]
    diagonal: tuple[int, ...]
    base_leaves: tuple[int, ...]
    repaired_base: TreePatch | None
    repair_trace: tuple[str, ...]

    def to_json_dict(self) -> dict:
        repaired = self.repaired_base
        return {
            "passed": self.passed,
            "reasons": list(self.reasons),
            "M_diagonal": list(self.diagonal),
            "base_leaf_counts": list(self.base_leaves),
            # every gate type occurs (see check_viral), so none is dropped
            "dropped_gates": [],
            "repaired": repaired is not None,
            "repaired_gates": None if repaired is None else [str(h) for h in repaired.system.gates.gates],
            "repair_trace": list(self.repair_trace),
        }


def check_viral(
    g: GraphOfGroups,
    gs: GateSystem,
    t0: TreePatch,
    repair_budget: int = DEFAULT_REPAIR_BUDGET,
) -> ViralReport:
    """Check M_ii >= 3 for every gate type and L_i(t0) >= 2.

    When the diagonal is fine but some leaf counts are small, repair t0 by
    growing it one leaf at a time until every type has at least two
    leaves: the first deficient type is grown at its first leaf, or, if it
    has none, the nearest type with a leaf whose carets lead to it (type a
    leads to type b when M_ba > 0).  An exhausted budget is reported, not
    raised.

    The search always finds a type to grow, because every gate type is the
    type of a leaf of some tree grown from t0.  A vertex entered through e
    at label v has index(h) - [h = e] children through each half-edge h at
    v; it *exits* h if it has one, and the child is entered through opp(h).

    First, every half-edge q is exited by infinitely many vertices of the
    model.  If not, no vertex of the subtree S below some vertex u exits q.
    Every vertex has a child (tree degree >= 2), so the entries of S hold
    a class C that is closed under taking a child's entry and in which
    each entry is a child's entry of one in C.  Call h *closed* if no
    vertex of S with entry in C exits h.  An edge from a label of C to a
    label without one would be closed at its inner half-edge h, so h would
    be the only entry of C there, with index 1, yet entered from outside.
    So every label holds an entry of C; then h closed means that h is the
    only entry of C at its label, with index(h) = 1, and q is closed.  At
    a closed h's label every other half-edge h' is exited, so h' is not in
    C, opp(h') is in C, and opp(h') is closed, as exiting it would put h'
    in C.  Each label with a closed half-edge has another half-edge (tree
    degree >= 2), and opp maps those one to one into the closed
    half-edges, one per such label.  Counting them, the map is onto and
    each such label has exactly two half-edges, so these labels form a
    whole component: the graph is one directed cycle with index 1 at each
    head, and the closed half-edges, q among them, are its heads.
    There the root exits the head at its label, the child through a head
    is entered through a tail, and a vertex entered through a tail exits
    the head at its label in turn: the root's backward chain exits every
    head, again and again, a contradiction.

    So infinitely many vertices are entered through each gate nu_j, and
    one of them, s, lies outside t0's finite interior.  The path to s
    leaves that interior at a leaf of t0; expanding the path's leaf, again
    and again, grows the path to its next vertex entered through a gate,
    so s becomes a leaf of type j.  Expanding a type-j leaf adds M_ij
    leaves of type i, so M leads from t0's leaf types to every type.  With
    every M_ii >= 3 no leaf count falls while t0 grows, so the types with
    a leaf in t0 keep one, and the search back along M from a deficient
    type reaches one of them.
    """
    if repair_budget < 0:
        raise ValidationError(f"repair budget must be nonnegative, got {repair_budget}")
    t0.require_admissible("t0")
    if t0.system.graph != g or t0.system.gates != gs:
        raise ValidationError("t0 belongs to a different system")
    M = caret_table(g, gs).M
    base = t0.counts()
    k = gs.k
    diag = tuple(M[i][i] for i in range(k))
    m_fail = [i for i in range(k) if diag[i] < 3]
    l_fail = [i for i in range(k) if base.leaves[i] < 2]
    reasons = [f"M_{i + 1}{i + 1} = {diag[i]}" for i in m_fail]
    reasons += [f"L_{i + 1}(T0) = {base.leaves[i]}" for i in l_fail]

    repaired_base = None
    trace: list[str] = []
    t = t0
    while l_fail and not m_fail:
        cur = t.counts().leaves
        deficient = [i for i in range(k) if cur[i] < 2]
        if not deficient:
            repaired_base = t
            break
        if len(trace) == repair_budget:
            trace.append(
                f"repair failed: budget of {repair_budget} expansions exhausted "
                f"with deficient types {[str(gs.gates[i]) for i in deficient]}"
            )
            break
        # the types that lead to the target, nearest first
        near = [deficient[0]]
        for b in near:
            near += [a for a in range(k) if M[b][a] > 0 and a not in near]
        pick = next(a for a in near if cur[a] >= 1)
        t = expand_leaf(t, min(a for a, e in t.typed_leaves() if e == gs.gates[pick]))
        trace.append(f"expanded a leaf of type {gs.gates[pick]}")

    return ViralReport(
        passed=not m_fail and not l_fail,
        reasons=tuple(reasons),
        diagonal=diag,
        base_leaves=base.leaves,
        repaired_base=repaired_base,
        repair_trace=tuple(trace),
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
