"""Expansion-complex vertices as count classes and their descending links.

A vertex of the expansion complex is an equivalence class of admissible
trees determined by its count vector, so a count class is a
``CountVector``; its height is the total number of leaves.  A descending
move contracts a caret whose terminal leaves sit inside the tree's leaf
set, so the descending link is a matching-type complex, described by a
``LinkSpec``: carets on pairwise disjoint leaf slots whose caret-type
multisets lie in a downward-closed set A.  Leaf slots within a type are
interchangeable positions 1..L_i; any type-preserving relabelling of
leaves is realised by an actual rearrangement, which is what justifies
working with labelled slots.

The fast path reads A off the histories of the count class (only
claimed for systems with the viral expansion property), the
definition-level oracle off an explicit tree enumeration, and the two
are compared by their A.  The connectivity report reads the link and
the threshold constants it is given, computed once per run.
"""

from __future__ import annotations

import bisect
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
    fits,
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
    """The descending link of a count-class vertex, built from ``spec``.

    ``higher_faces[d-1]`` holds the dimension-d faces as increasing tuples
    of indices into ``vertices``, and each layer is sorted.  Dimension-0
    faces are the vertices themselves.  The complex and the JSON form read
    these layers in place: nothing is copied.
    """

    x: CountVector
    spec: LinkSpec
    vertices: tuple[LinkVertex, ...]
    higher_faces: tuple[tuple[tuple[int, ...], ...], ...]

    @property
    def f_vector(self) -> tuple[int, ...]:
        return (len(self.vertices),) + tuple(len(fs) for fs in self.higher_faces)

    def to_complex(self) -> SimplicialComplex:
        """The link on its vertex indices, holding its own higher layers."""
        levels = (tuple((i,) for i in range(len(self.vertices))),) + self.higher_faces
        return SimplicialComplex(tuple(fs for fs in levels if fs))

    def to_json_dict(self) -> dict:
        """The link as JSON, its maximal faces read off A: those of
        ``to_complex().maximal_faces``, in its order (by size, each size
        sorted).

        A face tau of a multiset mu holds M mu leaf slots, pairwise disjoint,
        so L - M mu slots are free.  A type-j vertex v extends tau iff v holds
        none of tau's slots (then v is not in tau, as every caret holds a
        slot) and mu + e_j is in A.  Such a v exists iff mu + e_j is in A and
        fits (M(mu + e_j) <= L): the free slots then hold a type-j caret, and
        every choice of its slots is a vertex, as e_j is in A by downward
        closure.  So tau is maximal iff no such mu + e_j exists, which
        depends on mu alone.  The faces of a layer are those of the mu in A
        of its size that fit (a mu that does not fit has none), so a layer is
        maximal whole when all of those mu are maximal, has no maximal face
        when none is, and is filtered by each face's type multiset otherwise;
        filtering keeps the sorted order.
        """
        spec = self.spec
        k = len(spec.leaves)

        def extends(mu):
            ups = (tuple(n + (t == j) for t, n in enumerate(mu)) for j in range(k))
            return any(up in spec.allowed and fits(up, spec.M, spec.leaves) for up in ups)

        fitting = [mu for mu in spec.allowed if fits(mu, spec.M, spec.leaves)]
        maximal = {mu for mu in fitting if not extends(mu)}
        types = [v.caret_type for v in self.vertices]

        def multiset(face):
            mu = [0] * k
            for v in face:
                mu[types[v]] += 1
            return tuple(mu)

        faces = []
        layers = (tuple((i,) for i in range(len(self.vertices))),) + self.higher_faces
        for size, layer in enumerate(layers, 1):
            tops = [mu in maximal for mu in fitting if sum(mu) == size]
            if all(tops):
                faces += layer
            elif any(tops):
                faces += [f for f in layer if multiset(f) in maximal]
        return {
            "x": self.x.to_json_dict(),
            "height": self.x.height,
            "f_vector": list(self.f_vector),
            "vertices": [v.to_json_dict() for v in self.vertices],
            "maximal_faces": tuple(faces),
        }


@dataclass(frozen=True)
class LinkSpec:
    """The matching-type complex X(L, M, A) that a descending link is.

    A type-j caret takes M_ij of the L_i leaf slots of type i.  Carets
    span a face iff their slots are pairwise disjoint and their caret-type
    multiset mu is in ``allowed``, the set A.  A link's A is nonzero,
    downward closed and fits (M mu <= L for every mu in it); ``f_vector``
    and ``build`` assume the first two.

    A link in such a complex is again one (Bjorner, Lovasz, Vrecica and
    Zivaljevic 1994; Jonsson 2008): for a face tau of multiset nu, with
    the slots tau leaves free renumbered in order within each type,
    lk(tau) = X(L - M nu, M, {mu - nu : mu in A, mu >= nu, mu != nu}).
    """

    leaves: tuple[int, ...]
    M: tuple[tuple[int, ...], ...]
    allowed: Collection[tuple[int, ...]]

    def f_vector(self) -> tuple[int, ...]:
        """The f-vector of ``build``, counted without building.

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
        k = len(self.leaves)
        f = [0] * max(max(map(sum, self.allowed), default=0), 1)
        for mu in self.allowed:
            faces = math.prod(
                math.perm(n, sum(self.M[i][j] * mu[j] for j in range(k))) for i, n in enumerate(self.leaves)
            )
            ways = math.prod(
                math.factorial(self.M[i][j]) ** mu[j] for i in range(k) for j in range(k)
            ) * math.prod(map(math.factorial, mu))
            f[sum(mu) - 1] += faces // ways
        return tuple(f)

    def build(self, x: CountVector) -> DescendingLink:
        """The link of x, whose leaves are L: the labelled faces of every
        mu in ``allowed``.

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
        upward, so the faces of one mu come out as one increasing run.  A
        layer is one ``sorted`` over its runs laid end to end, which finds
        the runs and merges them.
        """
        k = len(self.leaves)
        units = [tuple(int(t == j) for t in range(k)) for j in range(k)]
        vertices, slots, spans = [], [], {}
        for j in (j for j in range(k) if units[j] in self.allowed):
            lo = len(vertices)
            for choice in itertools.product(
                *(itertools.combinations(range(n), self.M[i][j]) for i, n in enumerate(self.leaves))
            ):
                vertices.append(LinkVertex(j, choice))
                slots.append(tuple(s * k + i for i in range(k) for s in choice[i]))
            spans[j] = (lo, len(vertices))
        # built from byte arrays: OR-ing one bit at a time into an int is
        # quadratic in |V|
        width = max(self.leaves, default=0) * k
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
        for size in range(2, max(map(sum, self.allowed), default=0) + 1):
            kept = {}
            for mu in (mu for mu in self.allowed if sum(mu) == size):
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
            higher.append(tuple(sorted(itertools.chain.from_iterable(kept.values()))))
            layer = kept
        return DescendingLink(x, self, tuple(vertices), tuple(higher))


def descending_link(
    x: CountVector,
    table: CaretTable,
    base: CountVector,
    max_vertices: int = DEFAULT_LINK_VERTEX_CAP,
    homology_dim: int | None = None,
) -> DescendingLink:
    """Fast-path construction of the descending link from count data only.

    The allowed caret-type multisets are read off the histories of x by
    ``allowed_multisets``, one ``realizable`` search per link, into the
    link's spec.  Before anything is built, the f-vector that the spec
    predicts is checked against ``max_vertices`` and then, when
    ``homology_dim`` is given, against the cell cap of ``homology`` up to
    that dimension; either refusal names that f-vector.  Only claimed for
    systems with the viral expansion property; the oracle below validates
    the reduction at desk scale.
    """
    if not is_viral(table, base):
        raise ValidationError(
            "the fast-path descending link needs the viral expansion property; "
            "run `gogtool viral` on this system"
        )
    spec = LinkSpec(x.leaves, table.M, allowed_multisets(x, table, base))
    f_vector = spec.f_vector()
    if f_vector[0] > max_vertices:
        raise CapExceeded(
            f"descending link would have more than {max_vertices} vertices; "
            f"predicted f-vector {f_vector}"
        )
    if homology_dim is not None:
        check_homology_cells(f_vector, homology_dim)
    return spec.build(x)


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
        ty = system.step_type[addr[-1]]
        if ty is None:
            continue
        mat, placed, _ = system.place(addr)
        if mat <= interior and interior.isdisjoint(placed):
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
    multiset contributes all its labelled faces, which the spec builds as
    on the fast path.  The multisets found are downward closed and fit,
    since their carets sit in a tree with the leaves of x; less the zero
    multiset (the empty set of carets), they are its allowed set.

    The enumeration goes (x.interior - t0.interior) // min(I) expansions
    deep: an expansion of type j adds I_j >= min(I) interior vertices, so
    no tree with the counts of x lies deeper.
    """
    t0.require_admissible("t0")
    table = caret_table(g, gs)
    base = t0.counts()
    delta = x.interior - base.interior

    mus: set[tuple[int, ...]] = set()
    if delta >= 0:
        depth = delta // min(table.I, default=1)
        for t in enumerate_admissible(g, gs, t0, depth, max_trees):
            if t.counts() != x:
                continue
            types = [j for _, j in _removable_carets(t, t0)]
            mus.update(itertools.product(*(range(types.count(j) + 1) for j in range(gs.k))))
    return LinkSpec(x.leaves, table.M, frozenset(mus) - {(0,) * gs.k}).build(x)


def link_difference(a: DescendingLink, b: DescendingLink) -> str | None:
    """None when the links are equal as labelled complexes; otherwise a
    minimal witness.  Links are equal iff their L, M and A are: the link
    is built from them, and A is read back off it, as every mu in A fits
    (M mu <= L) and so has a face whose vertex types give back mu."""
    if a.x != b.x:
        return f"different count classes: {a.x} vs {b.x}"
    if a.spec.M != b.spec.M:
        return f"caret tables differ: {a.spec.M} vs {b.spec.M}"
    extra = min(set(a.spec.allowed).symmetric_difference(b.spec.allowed), default=None)
    if extra is None:
        return None
    side = "first" if extra in a.spec.allowed else "second"
    return f"caret-type multiset {extra} only in {side} link"


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
            "x": self.x.to_json_dict(),
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
    The link holds one iff size e_1 is in A.  Vertices sort by type, then
    slots, so caret c of it takes the slot block c M_i1 .. (c + 1) M_i1 - 1
    of each type i (A fits, so the blocks do), found by bisection."""
    if (size,) + (0,) * (len(link.x.leaves) - 1) not in link.spec.allowed:
        return None
    blocks = (tuple(tuple(range(c * m[0], c * m[0] + m[0])) for m in link.spec.M) for c in range(size))
    return tuple(bisect.bisect_left(link.vertices, LinkVertex(0, slots)) for slots in blocks)
