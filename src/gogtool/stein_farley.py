"""Expansion-complex vertices as count classes and their descending links.

A vertex of the expansion complex is an equivalence class of admissible
trees determined by its count vector (interior count and typed leaf
counts); its height is the total number of leaves.  A descending move
contracts a caret whose terminal leaves sit inside the tree's leaf set,
so the descending link is a matching-style complex: vertices are
(caret type, labelled leaf subset) pairs, and a set of them spans a face
iff the subsets are pairwise disjoint and the residual counts are
realizable with enough residual leaves of each type to re-attach every
removed caret.

Leaf slots within a type are interchangeable positions 1..L_i; any
type-preserving relabelling of leaves is realised by an actual
rearrangement, which is what justifies working with labelled subsets.
So a face is fixed by its caret-type multiset mu plus a slot assignment,
and one generator, ``_faces``, turns each allowed mu into its labelled
faces.  The two constructions differ only in where the allowed mu come
from: the fast path grows them from count data alone (only claimed for
systems with the viral expansion property), while the definition-level
oracle reads them off an explicit tree enumeration and is compared
against the fast path at desk scale.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cache, cached_property

from .count_algebra import (
    DEFAULT_DICKSON_BOX,
    NOTE_BEYOND_CAPS,
    NOTE_HOMOLOGY_PROXY,
    CountVector,
    History,
    elementary_expansion_ok,
    expansion_matrix,
    predict_counts,
    thresholds as compute_thresholds,
    weighted_vectors,
)
from .errors import CapExceeded, ValidationError
from .gates import GateSystem
from .model import GraphOfGroups
from .patches import (
    DEFAULT_TREE_BUDGET,
    CaretTable,
    TreePatch,
    _expand_vertex,
    caret_table,
    enumerate_admissible,
)
from .simplicial import SimplicialComplex, homology, lemma_connectivity_bound

DEFAULT_LINK_VERTEX_CAP = 100_000
# links with more vertices skip the connectivity-lemma check
LEMMA_CHECK_CAP = 400


@dataclass(frozen=True, order=True)
class SFVertex:
    """A count class of admissible trees."""

    counts: CountVector

    @property
    def height(self) -> int:
        return self.counts.height


def is_viral(table: CaretTable, base: CountVector) -> bool:
    k = len(table.I)
    return all(table.M[i][i] >= 3 for i in range(k)) and all(
        l >= 2 for l in base.leaves
    )


def sf_vertices_at_height(h: int, table: CaretTable, base: CountVector) -> tuple[SFVertex, ...]:
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
    return tuple(SFVertex(c) for c in sorted(out))


def sf_vertices_at_height_enumerated(
    h: int,
    g: GraphOfGroups,
    gs: GateSystem,
    t0: TreePatch,
    max_expansions: int,
    max_trees: int = DEFAULT_TREE_BUDGET,
) -> tuple[SFVertex, ...]:
    """Fallback for non-viral systems: read count classes off an explicit
    bounded tree enumeration (complete only within the expansion bound)."""
    trees = enumerate_admissible(g, gs, t0, max_expansions, max_trees)
    found = {t.counts() for t in trees}
    return tuple(SFVertex(c) for c in sorted(found) if c.height == h)


@dataclass(frozen=True, order=True)
class LinkVertex:
    """One descending move: a caret type and, per gate type, the sorted
    leaf-slot subset its terminal leaves occupy."""

    caret_type: int
    slots: tuple[tuple[int, ...], ...]

    def to_json_dict(self) -> dict:
        return {"type": self.caret_type + 1, "slots": [list(s) for s in self.slots]}


@dataclass(frozen=True)
class DescendingLink:
    """The descending link of a count-class vertex.

    ``higher_faces[d-1]`` holds the dimension-d faces as sorted tuples of
    indices into ``vertices``; dimension-0 faces are the vertices
    themselves.
    """

    x: SFVertex
    vertices: tuple[LinkVertex, ...]
    higher_faces: tuple[tuple[tuple[int, ...], ...], ...]

    @property
    def f_vector(self) -> tuple[int, ...]:
        return (len(self.vertices),) + tuple(len(fs) for fs in self.higher_faces)

    @property
    def edge_count(self) -> int:
        return len(self.higher_faces[0]) if self.higher_faces else 0

    @property
    def dimension(self) -> int:
        return len(self.higher_faces)

    @cached_property
    def maximal_faces(self) -> tuple[frozenset, ...]:
        levels: list[list[tuple[int, ...]]] = [[(i,) for i in range(len(self.vertices))]]
        levels += [list(fs) for fs in self.higher_faces]
        non_max: set[tuple[int, ...]] = set()
        for d in range(len(levels) - 1, 0, -1):
            for face in levels[d]:
                for sub in itertools.combinations(face, d):
                    non_max.add(sub)
        out = [frozenset(f) for level in levels for f in level if f not in non_max]
        return tuple(sorted(out, key=lambda f: (len(f), tuple(sorted(f)))))

    def to_complex(self) -> SimplicialComplex:
        return SimplicialComplex(tuple(range(len(self.vertices))), self.maximal_faces)

    def to_json_dict(self) -> dict:
        return {
            "x": {"interior": self.x.counts.interior, "leaves": list(self.x.counts.leaves)},
            "height": self.x.height,
            "f_vector": list(self.f_vector),
            "vertices": [v.to_json_dict() for v in self.vertices],
            "maximal_faces": [sorted(f) for f in self.maximal_faces],
        }


def _residual_checker(x: SFVertex, table: CaretTable, base: CountVector):
    """``elementary_expansion_ok`` at the counts of x, memoised on the
    caret-type multiset mu."""
    return cache(lambda mu: elementary_expansion_ok(x.counts, mu, table, base))


def _faces(mu: tuple[int, ...], table: CaretTable, leaves: tuple[int, ...]):
    """Every labelled face of the caret-type multiset ``mu``, each once.

    A face holds one LinkVertex per caret, with slot subsets pairwise
    disjoint within each gate type.  Carets come by type, and carets of
    one type in strictly increasing LinkVertex order; being disjoint, they
    are ordered by the first slot of their first nonempty group, so that
    slot is drawn above the previous caret's.  Faces come out as
    increasing tuples of LinkVertex.
    """
    k = len(leaves)
    carets = [j for j in range(k) for _ in range(mu[j])]
    first = {j: next(i for i in range(k) if table.M[i][j]) for j in set(carets)}

    def rec(idx: int, free: tuple[tuple[int, ...], ...], acc: list[LinkVertex]):
        if idx == len(carets):
            yield tuple(acc)
            return
        j, g = carets[idx], first[carets[idx]]
        lo = acc[-1].slots[g][0] if acc and acc[-1].caret_type == j else -1
        pools = [
            itertools.combinations(
                [s for s in free[i] if s > lo] if i == g else free[i], table.M[i][j]
            )
            for i in range(k)
        ]
        for choice in itertools.product(*pools):
            rest = tuple(tuple(s for s in free[i] if s not in choice[i]) for i in range(k))
            yield from rec(idx + 1, rest, acc + [LinkVertex(j, choice)])

    yield from rec(0, tuple(tuple(range(n)) for n in leaves), [])


def _link_from_multisets(
    x: SFVertex, table: CaretTable, layers: list[set[tuple[int, ...]]]
) -> DescendingLink:
    """The link whose dimension-d faces are the labelled faces of the
    caret-type multisets in ``layers[d]``."""
    leaves = x.counts.leaves
    vertices = tuple(
        sorted(v for layer in layers[:1] for mu in layer for (v,) in _faces(mu, table, leaves))
    )
    index = {v: i for i, v in enumerate(vertices)}
    higher = tuple(
        tuple(
            sorted(
                tuple(index[v] for v in face)
                for mu in layer
                for face in _faces(mu, table, leaves)
            )
        )
        for layer in layers[1:]
    )
    return DescendingLink(x, vertices, higher)


def descending_link(
    x: SFVertex,
    table: CaretTable,
    base: CountVector,
    max_vertices: int = DEFAULT_LINK_VERTEX_CAP,
) -> DescendingLink:
    """Fast-path construction of the descending link from count data only.

    The allowed caret-type multisets grow layer by layer from the single
    carets: a multiset is kept when ``ok`` holds for it and every multiset
    one caret smaller was kept.  Only claimed for systems with the viral
    expansion property; the oracle below validates the reduction at desk
    scale.
    """
    if not is_viral(table, base):
        raise ValidationError(
            "descending_link's count-level face predicate is only claimed for "
            "systems with the viral expansion property; use the oracle instead"
        )
    k = len(table.I)
    leaves = x.counts.leaves
    ok = _residual_checker(x, table, base)

    singles = [tuple(int(t == j) for t in range(k)) for j in range(k)]
    kept = [j for j in range(k) if ok(singles[j])]
    total = sum(math.prod(math.comb(leaves[i], table.M[i][j]) for i in range(k)) for j in kept)
    if total > max_vertices:
        raise CapExceeded(f"descending link would have more than {max_vertices} vertices")
    layers = []
    layer = {singles[j] for j in kept}
    while layer:
        layers.append(layer)
        grown = {tuple(n + (t == j) for t, n in enumerate(nu)) for nu in layer for j in range(k)}
        layer = {
            mu
            for mu in grown
            if all(
                tuple(n - (t == i) for t, n in enumerate(mu)) in layers[-1]
                for i in range(k)
                if mu[i]
            )
            and ok(mu)
        }
    return _link_from_multisets(x, table, layers)


# -- definition-level oracle ---------------------------------------------


def _removable_carets(t: TreePatch, t0: TreePatch) -> list[tuple]:
    """Expansion vertices of t whose grown caret is terminal in t, i.e.
    whose entire subtree is exactly the caret material.  Removing any
    subset of them leaves an admissible tree containing t0."""
    system = t.system
    gs = system.gates
    out = []
    for addr in sorted(t.interior - t0.interior):
        entry = system.entry_of(addr)
        if entry not in gs:
            continue
        depth = len(addr)
        below = {a for a in t.interior if a[:depth] == addr}
        if below == _expand_vertex(system, addr, entry):
            out.append((addr, gs.type_index(entry)))
    return out


def oracle_descending_link(
    x: SFVertex,
    g: GraphOfGroups,
    gs: GateSystem,
    t0: TreePatch,
    max_trees: int = DEFAULT_TREE_BUDGET,
) -> DescendingLink:
    """Definition-level descending link via explicit tree enumeration.

    Enumerates every admissible tree with the counts of x and reads off
    the caret-type multiset of every set of removable carets.  Every
    type-preserving leaf matching is realised by a rearrangement, so each
    multiset contributes all its labelled faces, built by the generator
    the fast path uses.
    """
    t0.require_admissible("t0")
    table = caret_table(g, gs)
    base = t0.counts()
    delta = x.counts.interior - base.interior

    mus: set[tuple[int, ...]] = set()
    if delta >= 0:
        for t in enumerate_admissible(g, gs, t0, delta, max_trees):
            if t.counts() != x.counts:
                continue
            types = [j for _, j in _removable_carets(t, t0)]
            mus.update(itertools.product(*(range(types.count(j) + 1) for j in range(gs.k))))
    mus.discard(tuple(0 for _ in range(gs.k)))
    top = max(map(sum, mus), default=0)
    layers = [{mu for mu in mus if sum(mu) == s} for s in range(1, top + 1)]
    return _link_from_multisets(x, table, layers)


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


def links_equal(a: DescendingLink, b: DescendingLink) -> bool:
    return link_difference(a, b) is None


# -- connectivity reports -----------------------------------------------


@dataclass(frozen=True)
class LinkReport:
    x: SFVertex
    f_vector: tuple[int, ...]
    betti: tuple[int, ...] | None
    betti_note: str
    per_m: tuple[dict, ...]
    caveats: tuple[str, ...]

    def to_json_dict(self) -> dict:
        return {
            "x": {"interior": self.x.counts.interior, "leaves": list(self.x.counts.leaves)},
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


def link_connectivity_report(
    x: SFVertex,
    table: CaretTable,
    base: CountVector,
    m_max: int = 0,
    link: DescendingLink | None = None,
    dickson_box: int = DEFAULT_DICKSON_BOX,
) -> LinkReport:
    """Homology of the descending link juxtaposed with the threshold
    constants, so below/above-threshold status is explicit.

    When the link contains a face made of C(m)/2 same-type carets, the
    connectivity-lemma checker is run with that face as the ground
    pseudosimplex (ground parameter k = beta).
    """
    if link is None:
        link = descending_link(x, table, base)
    cx = link.to_complex()
    if link.vertices:
        betti_report = homology(cx, max_dim=max(m_max, 1))
        betti = betti_report.betti
        betti_note = "integer homology of the constructed link"
    else:
        betti = None
        betti_note = "empty link: (-1)-connected only"

    per_m = []
    for m in range(m_max + 1):
        th = compute_thresholds(m, table, base, box=dickson_box)
        side = "below" if x.height < th.r else "at or above"
        status = f"m={m}: height {x.height} {side} threshold r({m})={th.r}"
        sigma_result: str
        want = th.C // 2
        if not link.vertices:
            sigma_result = "no vertices, no ground pseudosimplex"
        elif len(link.vertices) > LEMMA_CHECK_CAP:
            sigma_result = f"lemma check skipped (link exceeds cap {LEMMA_CHECK_CAP})"
        else:
            sigma = _planted_same_type_face(link, table, base, want)
            if sigma is None:
                sigma_result = (
                    f"no face of {want} same-type carets exists at this height"
                )
            else:
                cb = lemma_connectivity_bound(cx, sigma, m + 1, th.beta)
                if cb.bound is not None:
                    sigma_result = f"lemma checker bound {cb.bound} from planted ground"
                else:
                    sigma_result = f"lemma hypotheses did not verify: {cb.failed}"
        per_m.append(
            {
                "m": m,
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


def _planted_same_type_face(
    link: DescendingLink, table: CaretTable, base: CountVector, size: int
) -> tuple[int, ...] | None:
    """The first link face made of ``size`` disjoint type-1 carets, if any."""
    if size <= 0:
        return None
    k = len(table.I)
    ok = _residual_checker(link.x, table, base)
    if not all(ok(tuple(n if t == 0 else 0 for t in range(k))) for n in range(1, size + 1)):
        return None
    mu = tuple(size if t == 0 else 0 for t in range(k))
    face = next(_faces(mu, table, link.x.counts.leaves), None)
    if face is None:
        return None
    index = {v: i for i, v in enumerate(link.vertices)}
    return tuple(index[v] for v in face)
