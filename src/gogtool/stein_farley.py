"""Expansion-complex vertices as count classes and their descending links.

A vertex of the expansion complex is an equivalence class of admissible
trees determined by its count vector, so a count class is a
``CountVector``; its height is the total number of leaves.  A descending
move contracts a caret whose terminal leaves sit inside the tree's leaf
set, so the descending link is a matching-style complex: vertices are
(caret type, labelled leaf subset) pairs, and a set of them spans a face
iff the subsets are pairwise disjoint and the residual counts are
realizable with enough residual leaves of each type to re-attach every
removed caret.

Leaf slots within a type are interchangeable positions 1..L_i; any
type-preserving relabelling of leaves is realised by an actual
rearrangement, which is what justifies working with labelled subsets.
So a face is fixed by its caret-type multiset mu plus a slot assignment,
and one builder, ``_link``, turns the allowed mu into their labelled
faces.  It extends each face by the vertices of one type that hold none
of its slots, read off per-slot vertex bitsets, so its time follows the
faces it emits.  Its sorted layers are read in place: the maximal faces
come from the one rule in ``simplicial.maximal_faces``, and the JSON
form copies no face.  The two constructions differ only in where the
downward-closed set of allowed mu comes from: the fast path reads it off
the histories of the count class (only claimed for systems with the
viral expansion property), while the definition-level oracle reads it
off an explicit tree enumeration and is compared against the fast path.
The connectivity report reads only the link and the threshold constants
it is given, the planted ground face included; the constants are
computed once per run.
"""

from __future__ import annotations

import heapq
import itertools
import math
from collections.abc import Collection, Sequence
from dataclasses import dataclass

from .count_algebra import (
    NOTE_BEYOND_CAPS,
    NOTE_HOMOLOGY_PROXY,
    CountVector,
    History,
    Thresholds,
    allowed_multisets,
    expansion_matrix,
    predict_counts,
    weighted_vectors,
)
from .errors import CapExceeded, ValidationError
from .gates import GateSystem
from .model import GraphOfGroups
from .patches import (
    DEFAULT_TREE_BUDGET,
    CaretTable,
    TreePatch,
    caret_table,
    enumerate_admissible,
)
from .simplicial import (
    SimplicialComplex,
    check_homology_cells,
    homology,
    lemma_connectivity_bound,
    maximal_faces,
)

DEFAULT_LINK_VERTEX_CAP = 100_000
# links with more vertices skip the connectivity-lemma check
LEMMA_CHECK_CAP = 400


def is_viral(table: CaretTable, base: CountVector) -> bool:
    k = len(table.I)
    return all(table.M[i][i] >= 3 for i in range(k)) and all(
        l >= 2 for l in base.leaves
    )


def sf_vertices_at_height(h: int, table: CaretTable, base: CountVector) -> tuple[CountVector, ...]:
    """All realizable count classes of height h.

    Requires every caret to strictly increase the leaf count (true under
    the viral property), which makes the search finite; otherwise use the
    enumeration fallback.
    """
    k = len(table.I)
    mm = expansion_matrix(table)
    adds = [sum(mm[i][j] for i in range(k)) for j in range(k)]
    if any(a < 1 for a in adds):
        raise ValidationError(
            "height search needs every caret to increase the leaf count "
            "(viral systems do); use sf_vertices_at_height_enumerated instead"
        )
    delta = h - base.height
    if delta < 0:
        return ()
    out = {
        predict_counts(History(n), table, base)
        for n in weighted_vectors(delta, adds)
    }
    return tuple(sorted(out))


def sf_vertices_at_height_enumerated(
    h: int,
    g: GraphOfGroups,
    gs: GateSystem,
    t0: TreePatch,
    max_expansions: int,
    max_trees: int = DEFAULT_TREE_BUDGET,
) -> tuple[CountVector, ...]:
    """Fallback for non-viral systems: read count classes off an explicit
    bounded tree enumeration (complete only within the expansion bound)."""
    trees = enumerate_admissible(g, gs, t0, max_expansions, max_trees)
    found = {t.counts() for t in trees}
    return tuple(c for c in sorted(found) if c.height == h)


@dataclass(frozen=True, order=True)
class LinkVertex:
    """One descending move: a caret type and, per gate type, the sorted
    leaf-slot subset its terminal leaves occupy."""

    caret_type: int
    slots: tuple[tuple[int, ...], ...]

    def to_json_dict(self) -> dict:
        return {"type": self.caret_type + 1, "slots": self.slots}


@dataclass(frozen=True)
class DescendingLink:
    """The descending link of a count-class vertex.

    ``higher_faces[d-1]`` holds the dimension-d faces as increasing tuples
    of indices into ``vertices``, and each layer is sorted.  Dimension-0
    faces are the vertices themselves.  The maximal faces and the JSON
    form read these layers in place: nothing is copied per face.
    """

    x: CountVector
    vertices: tuple[LinkVertex, ...]
    higher_faces: tuple[tuple[tuple[int, ...], ...], ...]

    @property
    def f_vector(self) -> tuple[int, ...]:
        return (len(self.vertices),) + tuple(len(fs) for fs in self.higher_faces)

    @property
    def maximal_faces(self) -> tuple[tuple[int, ...], ...]:
        """The faces that are no facet of a face one size larger, in the
        order ``SimplicialComplex.maximal_faces`` lists them."""
        return maximal_faces(range(len(self.vertices)), self.higher_faces)

    def to_complex(self) -> SimplicialComplex:
        n = len(self.vertices)
        levels = (tuple((i,) for i in range(n)),) + self.higher_faces
        return SimplicialComplex(tuple(range(n)), tuple(frozenset(fs) for fs in levels if fs))

    def to_json_dict(self) -> dict:
        return {
            "x": {"interior": self.x.interior, "leaves": list(self.x.leaves)},
            "height": self.x.height,
            "f_vector": list(self.f_vector),
            "vertices": [v.to_json_dict() for v in self.vertices],
            "maximal_faces": self.maximal_faces,
        }


def _link(x: CountVector, table: CaretTable, allowed: Collection[tuple[int, ...]]) -> DescendingLink:
    """The link whose faces are the labelled faces of the nonzero
    caret-type multisets mu in the downward-closed set ``allowed``.

    Each type j with e_j in ``allowed`` contributes its vertices in
    LinkVertex order, so types occupy increasing index ranges [lo, hi).  A
    leaf slot is a (type, position) pair, and ``users[j][s]`` is the
    bitset of the type-j vertices holding slot s, bit v - lo for vertex v.
    These bitsets take O(slots x |V|) bits; no per-vertex conflict set
    (O(|V|^2) bits) is kept.

    Layer s holds the faces of the mu of size s in ``allowed``.  A face of
    mu is a face of mu - e_j, j the largest type in mu, plus a type-j
    vertex past its last index that holds none of its slots.  Those
    vertices are the range [max(lo, last + 1), hi) minus the OR of
    ``users[j][s]`` over the face's slots, so the cost follows the faces
    emitted rather than the vertices scanned.  The last vertex of a face
    of mu has type j, and removing it leaves the face it grew from; so
    each face is built exactly once, as an increasing index tuple.  The
    parent faces come in increasing order and the set bits are walked
    upward, so the faces of one mu come out increasing, and merging those
    runs sorts a layer.
    """
    k = len(x.leaves)
    units = [tuple(int(t == j) for t in range(k)) for j in range(k)]
    vertices, slots, spans = [], [], {}
    for j in (j for j in range(k) if units[j] in allowed):
        lo = len(vertices)
        for choice in itertools.product(
            *(itertools.combinations(range(n), table.M[i][j]) for i, n in enumerate(x.leaves))
        ):
            vertices.append(LinkVertex(j, choice))
            slots.append(tuple(s * k + i for i in range(k) for s in choice[i]))
        spans[j] = (lo, len(vertices))
    # built from byte arrays: OR-ing one bit at a time into an int is
    # quadratic in |V|
    width = max(x.leaves, default=0) * k
    users = {}
    for j, (lo, hi) in spans.items():
        bits = [bytearray((hi - lo + 7) // 8) for _ in range(width)]
        for v in range(lo, hi):
            for s in slots[v]:
                bits[s][(v - lo) >> 3] |= 1 << ((v - lo) & 7)
        users[j] = [int.from_bytes(b, "little") for b in bits]
    # faces index through one shared tuple, so equal indices are one int object
    ids = tuple(range(len(vertices)))
    layer = {units[j]: [(v,) for v in ids[lo:hi]] for j, (lo, hi) in spans.items()}
    higher = []
    for size in range(2, max(map(sum, allowed), default=0) + 1):
        kept = {}
        for mu in (mu for mu in allowed if sum(mu) == size):
            j = max(i for i in range(k) if mu[i])
            lo, hi = spans[j]
            uj = users[j]
            span = (1 << (hi - lo)) - 1
            faces = kept[mu] = []
            for face in layer[tuple(n - (t == j) for t, n in enumerate(mu))]:
                blocked = 0
                for v in face:
                    for s in slots[v]:
                        blocked |= uj[s]
                start = max(lo, face[-1] + 1)
                free = (span & ~blocked) >> (start - lo)
                while free:
                    low = free & -free
                    faces.append(face + (ids[start + low.bit_length() - 1],))
                    free ^= low
        higher.append(tuple(heapq.merge(*kept.values())))
        layer = kept
    return DescendingLink(x, tuple(vertices), tuple(higher))


def link_f_vector(
    x: CountVector, table: CaretTable, allowed: Collection[tuple[int, ...]]
) -> tuple[int, ...]:
    """The f-vector of ``_link(x, table, allowed)``, counted without
    building it.

    A face of mu is a set of carets, mu_j of type j, on pairwise disjoint
    leaf-slot subsets, a type-j caret taking M_ij slots of each type i.
    With u_i = sum_j M_ij mu_j slots of type i used, the carets taken in a
    fixed order fill those slots in L_i! / (L_i - u_i)! ordered ways, each
    caret's slots unordered within it; carets of one type are distinct (a
    caret holds at least one slot: no column of M is zero), so unordering
    them divides by mu_j!:

        prod_i L_i! / ((L_i - u_i)! prod_j (M_ij!)^mu_j) / prod_j mu_j!

    faces, and none when some u_i > L_i.  Dimension d sums it over the mu
    of size d + 1 in ``allowed``.
    """
    k = len(x.leaves)
    f = [0] * max(max(map(sum, allowed), default=0), 1)
    for mu in allowed:
        faces = math.prod(
            math.perm(n, sum(table.M[i][j] * mu[j] for j in range(k))) for i, n in enumerate(x.leaves)
        )
        ways = math.prod(
            math.factorial(table.M[i][j]) ** mu[j] for i in range(k) for j in range(k)
        ) * math.prod(map(math.factorial, mu))
        f[sum(mu) - 1] += faces // ways
    return tuple(f)


def descending_link(
    x: CountVector,
    table: CaretTable,
    base: CountVector,
    max_vertices: int = DEFAULT_LINK_VERTEX_CAP,
    homology_dim: int | None = None,
) -> DescendingLink:
    """Fast-path construction of the descending link from count data only.

    The allowed caret-type multisets are read off the histories of x by
    ``allowed_multisets``, one ``realizable`` search per link; the size
    check and ``_link`` both read that set.  Before anything is built, the
    f-vector that ``link_f_vector`` predicts is checked against
    ``max_vertices`` and then, when ``homology_dim`` is given, against the
    cell cap of ``homology`` up to that dimension; either refusal names
    that f-vector.  Only claimed for systems with the viral expansion
    property; the oracle below validates the reduction at desk scale.
    """
    if not is_viral(table, base):
        raise ValidationError(
            "the fast-path descending link needs the viral expansion property; "
            "run `gogtool viral` on this system"
        )
    allowed = allowed_multisets(x, table, base)
    f_vector = link_f_vector(x, table, allowed)
    if f_vector[0] > max_vertices:
        raise CapExceeded(
            f"descending link would have more than {max_vertices} vertices; "
            f"predicted f-vector {f_vector}"
        )
    if homology_dim is not None:
        check_homology_cells(f_vector, homology_dim)
    return _link(x, table, allowed)


# -- definition-level oracle ---------------------------------------------


def _removable_carets(t: TreePatch, t0: TreePatch) -> list[tuple]:
    """Expansion vertices of t whose grown caret is terminal in t, i.e.
    whose entire subtree is exactly the caret material.  Removing any
    subset of them leaves an admissible tree containing t0.

    A vertex v is removable iff its placed caret interior C lies in
    t.interior and none of its placed leaves is interior.  If v's subtree
    is C, both hold.  Conversely, C is prefix-closed below v and the
    children of C's vertices outside C are exactly the placed leaves, so
    a path from v to an interior vertex below v that is not in C passes
    through a placed leaf, which is then interior by prefix closure.  So
    no vertex of t's subtree at v lies outside C, and C lies in it."""
    system = t.system
    interior = t.interior
    out = []
    for addr in sorted(interior - t0.interior):
        entry = system.step_entry[addr[-1]]
        ty = system.gate_type[entry]
        if ty is None:
            continue
        mat, placed = system.shape(entry, addr).place(addr)
        if mat <= interior and all(a not in interior for a, _ in placed):
            out.append((addr, ty))
    return out


def oracle_descending_link(
    x: CountVector,
    g: GraphOfGroups,
    gs: GateSystem,
    t0: TreePatch,
    max_trees: int = DEFAULT_TREE_BUDGET,
) -> DescendingLink:
    """Definition-level descending link via explicit tree enumeration.

    Enumerates every admissible tree with the counts of x and reads off
    the caret-type multiset of every set of removable carets.  Every
    type-preserving leaf matching is realised by a rearrangement, so each
    multiset contributes all its labelled faces, which ``_link`` builds as
    on the fast path; the multisets found are downward closed, so they
    are its allowed set as they stand.
    """
    t0.require_admissible("t0")
    table = caret_table(g, gs)
    base = t0.counts()
    delta = x.interior - base.interior

    mus: set[tuple[int, ...]] = set()
    if delta >= 0:
        for t in enumerate_admissible(g, gs, t0, delta, max_trees):
            if t.counts() != x:
                continue
            types = [j for _, j in _removable_carets(t, t0)]
            mus.update(itertools.product(*(range(types.count(j) + 1) for j in range(gs.k))))
    return _link(x, table, mus)


def link_difference(a: DescendingLink, b: DescendingLink) -> str | None:
    """None when the links are equal as labelled complexes (canonical
    vertex order); otherwise a minimal witness of the mismatch."""
    if a.x != b.x:
        return f"different count classes: {a.x} vs {b.x}"
    if a.vertices != b.vertices:
        sa, sb = set(a.vertices), set(b.vertices)
        extra = sorted(sa ^ sb)[0]
        side = "first" if extra in sa else "second"
        return f"vertex {extra} only in {side} link"
    if a.f_vector != b.f_vector:
        return f"f-vectors differ: {a.f_vector} vs {b.f_vector}"
    for d in range(max(len(a.higher_faces), len(b.higher_faces))):
        fa = set(a.higher_faces[d]) if d < len(a.higher_faces) else set()
        fb = set(b.higher_faces[d]) if d < len(b.higher_faces) else set()
        if fa != fb:
            extra = sorted(fa ^ fb)[0]
            side = "first" if extra in fa else "second"
            return f"dimension-{d + 1} face {extra} only in {side} link"
    return None


# -- connectivity reports -----------------------------------------------


@dataclass(frozen=True)
class LinkReport:
    x: CountVector
    f_vector: tuple[int, ...]
    betti: tuple[int, ...] | None
    betti_note: str
    per_m: tuple[dict, ...]
    caveats: tuple[str, ...]

    def to_json_dict(self) -> dict:
        return {
            "x": {"interior": self.x.interior, "leaves": list(self.x.leaves)},
            "height": self.x.height,
            "f_vector": list(self.f_vector),
            "betti": list(self.betti) if self.betti is not None else None,
            "betti_note": self.betti_note,
            "thresholds": list(self.per_m),
            "caveats": list(self.caveats),
        }

    def csv_row(self) -> str:
        betti = ";".join(str(b) for b in self.betti) if self.betti is not None else "n/a"
        fv = ";".join(str(n) for n in self.f_vector)
        status = " | ".join(d["status"] for d in self.per_m)
        ne = self.f_vector[1] if len(self.f_vector) > 1 else 0
        return f"{self.x.height},{self.f_vector[0]},{ne},{fv},{betti},{status}"


CSV_HEADER = "height,vertices,edges,f_vector,betti,threshold_status"


def link_connectivity_report(link: DescendingLink, thresholds: Sequence[Thresholds]) -> LinkReport:
    """Homology of the descending link juxtaposed with the threshold
    constants, so below/above-threshold status is explicit.

    ``thresholds`` holds the constants for m = 0..m_max, computed once by
    the caller for all the links of a run; homology goes up to
    dimension max(m_max, 1).  When the link contains a face made of
    C(m)/2 same-type carets, the connectivity-lemma checker is run with
    that face as the ground pseudosimplex (ground parameter k = beta).
    """
    x = link.x
    cx = link.to_complex()
    if link.vertices:
        betti_report = homology(cx, max_dim=max(len(thresholds) - 1, 1))
        betti = betti_report.betti
        betti_note = "integer homology of the constructed link"
    else:
        betti = None
        betti_note = "empty link: (-1)-connected only"

    per_m = []
    for th in thresholds:
        side = "below" if x.height < th.r else "at or above"
        status = f"m={th.m}: height {x.height} {side} threshold r({th.m})={th.r}"
        want = th.C // 2
        if not link.vertices:
            sigma_result = "no vertices, no ground pseudosimplex"
        elif len(link.vertices) > LEMMA_CHECK_CAP:
            sigma_result = f"lemma check skipped (link exceeds cap {LEMMA_CHECK_CAP})"
        else:
            sigma = _planted_same_type_face(link, want)
            if sigma is None:
                sigma_result = (
                    f"no face of {want} same-type carets exists at this height"
                )
            else:
                cb = lemma_connectivity_bound(cx, sigma, th.m + 1, th.beta)
                if cb.bound is not None:
                    sigma_result = f"lemma checker bound {cb.bound} from planted ground"
                else:
                    sigma_result = f"lemma hypotheses did not verify: {cb.failed}"
        per_m.append(
            {
                "m": th.m,
                "beta": th.beta,
                "C": th.C,
                "alpha": th.alpha_value,
                "alpha_complete": th.alpha_complete,
                "r": th.r,
                "status": status,
                "ground_check": sigma_result,
            }
        )
    return LinkReport(
        x=x,
        f_vector=link.f_vector,
        betti=betti,
        betti_note=betti_note,
        per_m=tuple(per_m),
        caveats=(NOTE_HOMOLOGY_PROXY, NOTE_BEYOND_CAPS),
    )


def _planted_same_type_face(link: DescendingLink, size: int) -> tuple[int, ...] | None:
    """The least face of ``size`` type-1 carets in the link, or None.
    Types occupy increasing index ranges, type 1 first, so a face whose
    last vertex has type 1 is all type 1, and the first such face of the
    sorted layer is the least.  A link holds every labelled face of a
    caret-type multiset or none, so the least one stands for them all."""
    layers = ([(v,) for v in range(len(link.vertices))], *link.higher_faces)
    layer = layers[size - 1] if 0 < size <= len(layers) else ()
    return next((f for f in layer if link.vertices[f[-1]].caret_type == 0), None)
