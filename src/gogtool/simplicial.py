"""Finite abstract simplicial complexes, integer homology, and the
pseudosimplex connectivity checker.

A complex has one face format: ``faces[s-1]`` is the sorted tuple of its
sorted s-vertex tuples; the vertices are its first layer, membership is
a binary search, and the maximal faces are derived.  Vertex labels only
need to be hashable and sortable.  Homology is exact over the integers.
rank d_1 comes from union-find components over the edge set (a graph
incidence matrix is totally unimodular, so all its invariant factors are
1).  Each higher d_k is built as sparse columns and checked by
d_(k-1) d_k = 0.  The d_k are reduced from the top down: the +-1 entries
are taken as pivots first, shortest row first; the faces that were such
pivot rows of d_(k+1) clear their columns from d_k; and the dense Smith
normal form runs only on the block left without unit entries.

The connectivity lemma checker reads a per-call index of the 1-skeleton:
the vertices ranked by sorted label, and each vertex's neighbour bitmask.
Its costly hypothesis, m-flag with respect to sigma, fails exactly when
some minimal non-face B with 3 <= |B| <= m+1 meets sigma; then
(B - sigma, B & sigma) is a violating pair.  B extends a face F by a
vertex above F[-1], and every pair in B is an edge, so the vertices tried
are the common neighbours of F, read off the masks.  Once that holds,
the joinability hypothesis is a count of the vertices of sigma that are
v or its neighbours.  ``random_complex`` grows its cliques the same way:
the generator and the checker both read upper-neighbour masks.

Connectivity is verified homologically plus path-connectedness.  That is
a necessary condition for topological m-connectedness, not a proof of
it; every report carries this caveat.
"""

from __future__ import annotations

import bisect
import heapq
import itertools
import math
import random
from collections import defaultdict
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property

from .count_algebra import NOTE_HOMOLOGY_PROXY
from .errors import CapExceeded, InvariantViolation, ValidationError

# cells homology holds: the nonzeros of each sparse d_k it builds, and the
# rows x columns of each dense block left after the unit pivots
HOMOLOGY_CELL_CAP = 4_000_000


def _has(layer: Sequence[tuple], face: tuple) -> bool:
    """Whether the sorted ``layer`` holds ``face``, by binary search."""
    i = bisect.bisect_left(layer, face)
    return i < len(layer) and layer[i] == face


@dataclass(frozen=True)
class SimplicialComplex:
    """Downward-closed face family: ``faces[s-1]`` is the sorted tuple of
    its sorted s-vertex tuples, and no layer is empty."""

    faces: tuple[tuple[tuple, ...], ...]

    @staticmethod
    def from_maximal(faces, vertices=None) -> "SimplicialComplex":
        """The complex generated by ``faces`` (any faces, not only maximal
        ones) plus the isolated ``vertices``."""
        levels: list[set] = []
        stack = [tuple(sorted(set(f))) for f in faces if f]
        stack += [(v,) for v in vertices or ()]
        while stack:
            f = stack.pop()
            while len(levels) < len(f):
                levels.append(set())
            if f in levels[len(f) - 1]:
                continue
            levels[len(f) - 1].add(f)
            if len(f) > 1:
                stack.extend(f[:p] + f[p + 1:] for p in range(len(f)))
        return SimplicialComplex(tuple(tuple(sorted(level)) for level in levels))

    @property
    def vertices(self) -> tuple:
        return tuple(v for (v,) in self.faces[0]) if self.faces else ()

    @property
    def dimension(self) -> int:
        return len(self.faces) - 1

    @cached_property
    def maximal_faces(self) -> tuple[tuple, ...]:
        """Faces that are no facet of a face one size larger, by size; a
        vertex is maximal when it lies on no edge."""
        faces = self.faces + ((), ())
        on_edge = set(itertools.chain.from_iterable(faces[1]))
        out = [f for f in faces[0] if f[0] not in on_edge]
        for size, layer in enumerate(self.faces[1:], 2):
            covered = {f[:p] + f[p + 1:] for f in faces[size] for p in range(size + 1)}
            out += [f for f in layer if f not in covered]
        return tuple(out)

    def is_face(self, s) -> bool:
        f = tuple(sorted(set(s)))
        return _has(self.faces_of_size(len(f)), f) if f else bool(self.faces)

    def faces_of_size(self, size: int) -> tuple[tuple, ...]:
        """All faces with ``size`` vertices (simplices of dimension size-1)."""
        return self.faces[size - 1] if 0 < size <= len(self.faces) else ()

    def f_vector(self) -> tuple[int, ...]:
        return tuple(len(level) for level in self.faces)

    def to_json_dict(self) -> dict:
        return {
            "vertices": list(self.vertices),
            "maximal_faces": [list(f) for f in self.maximal_faces],
        }

    @staticmethod
    def from_json_dict(data: dict) -> "SimplicialComplex":
        """Read a complex written by ``to_json_dict``; labels must be all
        integers or all strings, so that they sort."""
        if not isinstance(data, dict):
            raise ValidationError("complex JSON must be an object")
        faces = data.get("maximal_faces", [])
        vertices = data.get("vertices")
        if not isinstance(faces, list) or not all(isinstance(f, list) for f in faces):
            raise ValidationError("maximal_faces must be a list of vertex-label lists")
        if vertices is not None and not isinstance(vertices, list):
            raise ValidationError("vertices must be a list of vertex labels")
        labels = [v for f in faces for v in f] + (vertices or [])
        if not (all(type(v) is int for v in labels) or all(type(v) is str for v in labels)):
            raise ValidationError("vertex labels must be all integers or all strings")
        return SimplicialComplex.from_maximal(faces, vertices=vertices)


# -- pseudosimplex framework ------------------------------------------------


def is_m_pseudosimplex(cx: SimplicialComplex, sigma, m: int) -> bool:
    """True iff every subset of up to m+1 vertices of sigma spans a face.

    Any subset of an m-pseudosimplex is again one, and the predicate is
    monotone decreasing in m.
    """
    s = sorted(set(sigma))
    return all(
        _has(cx.faces_of_size(size), c)
        for size in range(1, min(len(s), m + 1) + 1)
        for c in itertools.combinations(s, size)
    )


def m_joinable(cx: SimplicialComplex, sigma, tau, m: int) -> bool:
    """True iff the union of the two vertex sets is an m-pseudosimplex."""
    return is_m_pseudosimplex(cx, set(sigma) | set(tau), m)


@dataclass(frozen=True)
class FlagCheck:
    holds: bool
    counterexample: tuple[tuple, tuple] | None = None


def _neighbour_masks(cx: SimplicialComplex) -> tuple[list, dict, dict]:
    """Per-call index of the 1-skeleton, built in O(|V| + |E|): the
    vertices in label order, each vertex's bit (ranked in that order) and
    each vertex's neighbour bitmask.  Nothing is stored on the complex."""
    order = cx.vertices
    bit = {v: 1 << i for i, v in enumerate(order)}
    nbr = dict.fromkeys(order, 0)
    for a, b in cx.faces_of_size(2):
        nbr[a] |= bit[b]
        nbr[b] |= bit[a]
    return order, bit, nbr


def is_m_flag_wrt(cx: SimplicialComplex, sigma, m: int) -> FlagCheck:
    """Decide the flag condition for sigma by minimal non-faces.

    A violation is an m-pseudosimplex rho and a pseudoface tau of sigma,
    all cross pairs edges, with rho union tau no m-pseudosimplex.  One
    exists iff a minimal non-face B with 3 <= |B| <= m+1 meets sigma:

    * given (rho, tau), a minimal non-face B of size <= m+1 lies in rho
      union tau, inside neither m-pseudosimplex, so it meets tau (hence
      sigma) and rho - tau; |B| = 2 would make B a cross pair, an edge.
    * given B, rho = B - sigma and tau = B & sigma are proper subsets of B
      (B is not inside sigma), so faces, as is every cross pair, while
      rho union tau = B is not.

    The search itself is ``_first_violation``.
    """
    sig = set(sigma)
    if not is_m_pseudosimplex(cx, sig, m):
        raise ValidationError("sigma is not an m-pseudosimplex")
    return _first_violation(cx, sig, m, *_neighbour_masks(cx))


def _first_violation(cx: SimplicialComplex, sig, m: int, order, bit, nbr) -> FlagCheck:
    """The flag check of ``is_m_flag_wrt`` for an m-pseudosimplex sigma,
    which is not checked again, over the index of ``_neighbour_masks``.

    B is searched by size, then sorted vertex tuple: each face F of size
    |B| - 1, in its sorted layer, is extended by each vertex v above F[-1]
    in label order.  A complex holds no other order, so the counterexample
    (sorted(B - sigma), sorted(B & sigma)) is the least B in every run.
    Only the v set in nbr[u] for every u in F (and, when F misses sigma,
    in sigma) are tried: for |B| >= 3, a pair {u, v} of B with u in F that
    is no edge lies in the facet B - {w} for some other w in F, which is
    then no face, so B is no minimal non-face.  The candidates are walked
    upward, so the first B found is the same.
    """
    if m < 2:
        return FlagCheck(True)  # no size 3 <= |B| <= m + 1
    sig_mask = 0
    for v in sig:
        sig_mask |= bit[v]
    for size in range(3, m + 2):
        smaller = cx.faces_of_size(size - 1)
        larger = cx.faces_of_size(size)
        for face in smaller:
            common = -(bit[face[-1]] << 1)  # every bit above face[-1]'s
            for u in face:
                common &= nbr[u]
            if sig.isdisjoint(face):
                common &= sig_mask
            while common:
                low = common & -common
                common ^= low
                b = face + (order[low.bit_length() - 1],)
                if not _has(larger, b) and all(
                    _has(smaller, b[:p] + b[p + 1:]) for p in range(size - 1)
                ):
                    return FlagCheck(
                        False,
                        (tuple(u for u in b if u not in sig), tuple(u for u in b if u in sig)),
                    )
    return FlagCheck(True)


@dataclass(frozen=True)
class ConnectivityBound:
    """Outcome of the connectivity lemma checker.

    ``bound`` is present only when every hypothesis verified; the value is
    min(floor(l/k) - 1, m - 1).  ``failed`` names the first hypothesis
    that did not verify.
    """

    bound: int | None
    failed: str | None
    sigma: tuple
    m: int
    k: int
    note: str = NOTE_HOMOLOGY_PROXY


def lemma_connectivity_bound(cx: SimplicialComplex, sigma, m: int, k: int) -> ConnectivityBound:
    """Verify the hypotheses of the pseudosimplex connectivity lemma and
    return the implied connectivity bound, or the failed hypothesis.

    Hypotheses: sigma is an m-pseudosimplex of dimension l, the complex is
    m-flag with respect to sigma, and every vertex is m-joinable to some
    (l - k)-pseudoface of sigma.  sigma is checked once; the flag search
    and the joinability count read one ``_neighbour_masks`` index.

    Once the flag hypothesis holds, a vertex v is joinable exactly when at
    least l - k + 1 vertices of sigma are v or its neighbours.  A
    pseudoface holding any other vertex w of sigma is not joinable to v
    ({v, w} is no face).  Conversely, let tau be a set of vertices of
    sigma, each v or a neighbour of v.  If {v} union tau is no
    m-pseudosimplex, some non-face of at most m+1 vertices lies in it, and
    so does a minimal non-face B.  B is not inside sigma, which is an
    m-pseudosimplex, so B holds v; B is no vertex, nor a pair {v, w}, an
    edge.  So B holds v and at least two vertices of sigma, with
    3 <= |B| <= m+1, and the flag search would have reported it.
    """
    if k < 1:
        raise ValidationError("k must be >= 1")
    if m < 0:
        raise ValidationError("m must be >= 0")
    sig = tuple(sorted(set(sigma)))

    def failed(hypothesis: str) -> ConnectivityBound:
        return ConnectivityBound(None, hypothesis, sig, m, k)

    order, bit, nbr = _neighbour_masks(cx)
    if not all(v in bit for v in sig):
        return failed("sigma contains unknown vertices")
    if not is_m_pseudosimplex(cx, sig, m):
        return failed("sigma is not an m-pseudosimplex")
    flag = _first_violation(cx, set(sig), m, order, bit, nbr)
    if not flag.holds:
        rho, tau = flag.counterexample
        return failed(f"complex is not m-flag with respect to sigma: rho={rho}, tau={tau}")
    l = len(sig) - 1
    size = max(l - k + 1, 0)
    if size > 0:
        sig_mask = sum(bit[w] for w in sig)
        for v in cx.vertices:
            if ((nbr[v] | bit[v]) & sig_mask).bit_count() < size:
                return failed(f"vertex {v!r} is not joinable to enough of sigma")
    return ConnectivityBound(min(l // k - 1, m - 1), None, sig, m, k)


# -- integer homology --------------------------------------------------------


def smith_normal_form(rows: list[list[int]], ncols: int) -> list[int]:
    """Invariant factors of an integer matrix: the nonzero diagonal
    entries of its Smith normal form, each dividing the next.

    First the matrix is diagonalised: each step pivots on an entry of
    least absolute value and clears the pivot's column and row by
    floor-division steps; the least remainder left, if any, becomes the
    pivot and the clearing repeats, with |pivot| strictly smaller.  Then
    pairwise (gcd, lcm) steps, which keep the direct sum of the Z/d,
    chain the diagonal entries d > 1.
    """
    A = [list(r) for r in rows]
    m, n = len(A), ncols
    units, chain = [], []
    for t in range(min(m, n)):
        piv, best = None, 0
        for i in range(t, m):
            row = A[i]
            for j in range(t, n):
                v = row[j]
                if v and (not best or abs(v) < best):
                    piv, best = (i, j), abs(v)
                    if best == 1:
                        break
            if best == 1:
                break
        if piv is None:
            break
        while piv is not None:
            i0, j0 = piv
            A[t], A[i0] = A[i0], A[t]
            if j0 != t:
                for r in A:
                    r[t], r[j0] = r[j0], r[t]
            rt = A[t]
            p = rt[t]
            for ri in A[t + 1:]:
                q = ri[t] // p
                if q:
                    for j in range(t, n):
                        ri[j] -= q * rt[j]
            col = [r for r in A[t:] if r[t]]  # a column step changes only these rows
            for j in range(t + 1, n):
                q = rt[j] // p
                if q:
                    for r in col:
                        r[j] -= q * r[t]
            left = [(abs(A[i][t]), i, t) for i in range(t + 1, m) if A[i][t]]
            left += [(abs(rt[j]), t, j) for j in range(t + 1, n) if rt[j]]
            piv = min(left)[1:] if left else None
        (units if abs(p) == 1 else chain).append(abs(p))
    for i in range(len(chain)):
        for j in range(i + 1, len(chain)):
            g = math.gcd(chain[i], chain[j])
            chain[i], chain[j] = g, chain[i] * chain[j] // g
    return units + chain


def boundary_matrix(cx: SimplicialComplex, d: int) -> list[dict[int, int]]:
    """Integer boundary matrix from d-simplices to (d-1)-simplices, as
    sparse columns.

    Column j maps row indices to the usual alternating signs; rows are
    indexed by the sorted (d-1)-faces and columns by the sorted d-faces.
    """
    lo_index = {f: i for i, f in enumerate(cx.faces_of_size(d))}
    return [
        {lo_index[f[:p] + f[p + 1:]]: 1 if p % 2 == 0 else -1 for p in range(d + 1)}
        for f in cx.faces_of_size(d + 1)
    ]


@dataclass(frozen=True)
class HomologyReport:
    betti: tuple[int, ...]
    torsion: tuple[tuple[int, ...], ...]
    caveat: str = NOTE_HOMOLOGY_PROXY

    def to_json_dict(self) -> dict:
        return {
            "betti": list(self.betti),
            "torsion": [list(t) for t in self.torsion],
            "caveat": self.caveat,
        }


def _components(cx: SimplicialComplex) -> int:
    """The number of connected components, by union-find over the edges;
    each merge removes one component, so the walk stops at one.  The count
    does not depend on the order, so the sorted layer is read in place at
    positions j * step mod n: step is coprime to n, so each edge is read
    once, and near n / phi (phi the golden ratio), so the first edges read
    are spread over the whole layer.  In layer order the last vertices
    merge late; the spread walk stops about as early as a walk of a copied
    edge set, with no copy (loop(3,3) h14: after 5,108 of 73,500 edges,
    against 47,101 in layer order and 5,044 for a frozenset).
    """
    parent = {v: v for v in cx.vertices}
    count = len(parent)

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    edges = cx.faces_of_size(2)
    n = len(edges)
    step = round(n * 0.618)
    while math.gcd(step, n) != 1:
        step += 1
    for j in range(0, n * step, step):
        if count == 1:
            break
        a, b = edges[j % n]
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
            count -= 1
    return count


def sparse_invariant_factors(cols, skip=frozenset(), name="the matrix"):
    """Invariant factors of the integer matrix whose columns are the
    sparse ``cols`` (row -> nonzero entry), leaving out the columns
    numbered in ``skip``, and the set of rows taken as unit pivots.  The
    columns are reduced in place.

    While some entry is +-1, one is taken as pivot: from a shortest row,
    in a shortest column.  Say it is u at (r, j).  Subtracting a*u times
    column j from each other column with entry a in row r is a unimodular
    column operation that zeroes row r outside column j.  Then subtracting
    multiples of row r clears column j outside row r; this unimodular row
    operation changes no other column, all zero in row r.  The matrix is
    now (u) + S, with S the Schur complement on the other rows and
    columns, so its invariant factors are 1 and those of S; the step
    drops row r and column j.  The block left holds no unit entry; its
    zero rows and columns add no factor, and the rest is densified and
    passed to ``smith_normal_form``, within ``HOMOLOGY_CELL_CAP`` cells.
    """
    live = list(cols)  # a pivot column becomes None
    for j in skip:
        live[j] = None
    where = defaultdict(set)  # row -> the live columns with an entry there
    for j, col in enumerate(live):
        if col is not None:
            for i in col:
                where[i].add(j)
    free = [i for i, js in where.items() if len(js) == 1]  # shortest rows, stacked
    heap = [(len(js), i) for i, js in where.items() if len(js) > 1]
    heapq.heapify(heap)
    pivots = set()
    while free or heap:
        if free:
            r = free.pop()
            js = where.get(r)
            if js is None or len(js) != 1:
                continue  # stale: the row changed after it was queued
            (j,) = js
            if live[j][r] not in (1, -1):
                continue  # queued again if fill-in changes it
        else:
            n, r = heapq.heappop(heap)
            js = where.get(r)
            if js is None or len(js) != n:
                continue
            units = [(len(live[k]), k) for k in js if live[k][r] in (1, -1)]
            if not units:
                continue
            j = min(units)[1]
        pcol, live[j] = live[j], None
        u = pcol.pop(r)
        del where[r]
        for k in js:
            if k != j:
                col = live[k]
                a = col.pop(r) * u
                for i, v in pcol.items():
                    w = col.get(i, 0) - a * v
                    if w:
                        col[i] = w
                        where[i].add(k)
                    else:
                        del col[i]
                        where[i].discard(k)
        for i in pcol:
            rest = where[i]
            rest.discard(j)
            if len(rest) == 1:
                free.append(i)
            elif rest:
                heapq.heappush(heap, (len(rest), i))
        pivots.add(r)

    factors = [1] * len(pivots)
    left = [col for col in live if col]
    if left:
        index = {i: t for t, i in enumerate(sorted({i for col in left for i in col}))}
        if len(index) * len(left) > HOMOLOGY_CELL_CAP:
            raise CapExceeded(
                f"homology cell budget exceeded: the dense block left of {name} after unit "
                f"pivots is {len(index)} x {len(left)} = {len(index) * len(left)} entries "
                f"> cap {HOMOLOGY_CELL_CAP}"
            )
        rows = [[0] * len(left) for _ in index]
        for j, col in enumerate(left):
            for i, a in col.items():
                rows[index[i]][j] = a
        factors += smith_normal_form(rows, len(left))
    return factors, pivots


def check_homology_cells(f_vector: Sequence[int], max_dim: int | None = None) -> None:
    """Refuse ``homology`` up to ``max_dim`` of a complex with this
    f-vector, before any matrix is built, when a d_k it would build has
    more than ``HOMOLOGY_CELL_CAP`` nonzeros: (k+1) f_k, for k from the
    top d_k needed (d_(max_dim+1), or the top dimension) down to 2, and
    k = 1 when d_2 is built.  The cap is read on every call, and the
    refusal names the whole f-vector."""
    dim = max((d for d, n in enumerate(f_vector) if n), default=-1)
    top = dim if max_dim is None else min(max_dim, dim)
    last = min(top + 1, dim)  # d_k for k > last is zero or not needed
    for d in range(last, 0, -1) if last >= 2 else ():
        if (d + 1) * f_vector[d] > HOMOLOGY_CELL_CAP:
            raise CapExceeded(
                f"homology cell budget exceeded: d_{d} has {(d + 1) * f_vector[d]} nonzeros "
                f"({f_vector[d]} columns of {d + 1}) > cap {HOMOLOGY_CELL_CAP}; "
                f"f-vector {tuple(f_vector)}"
            )


def homology(cx: SimplicialComplex, max_dim: int | None = None) -> HomologyReport:
    """Integer simplicial homology: Betti numbers and torsion invariants.

    rank d_1 is |V| minus the components found by union-find: d_1 is a
    graph incidence matrix, totally unimodular, so its invariant factors
    are all 1.  Each d_k with k >= 2 is built as sparse columns, checked
    against d_(k-1) by exact sparse composition, and reduced by
    ``sparse_invariant_factors``: unit pivots first, then dense SNF on the
    block left.  Before any matrix is built, the nonzeros (k+1) f_k of
    each d_k to be built are checked against ``HOMOLOGY_CELL_CAP`` by
    ``check_homology_cells``; d_1 is built, for the check of d_2, only
    when d_2 is.

    The d_k are reduced from the top down, and the (k-1)-faces taken as
    unit pivot rows of d_k are cleared: their columns are left out of
    d_(k-1).  That keeps the invariant factors of d_(k-1), which depend
    only on the lattice L its columns span (they are read off Z^rows / L).
    When the pivot at face t was taken, its column was d_k z for an
    integer chain z (each step adds integer multiples of other columns),
    with entry +-1 at t and none at the earlier pivot rows.  So
    d_(k-1) d_k z = 0 writes the column of t as an integer combination of
    the columns of faces that are no earlier pivot row.  By induction from
    the last pivot back to the first, every cleared column is an integer
    combination of the columns kept.  Pivots from the dense block are not
    cleared.
    """
    if not cx.vertices:
        return HomologyReport((), ())
    check_homology_cells(cx.f_vector(), max_dim)
    dim = cx.dimension
    top = dim if max_dim is None else min(max_dim, dim)
    sizes = [len(cx.faces_of_size(s)) for s in range(1, top + 3)]
    last = min(top + 1, dim)  # d_k for k > last is zero or not needed

    ranks = [0, len(cx.vertices) - _components(cx)] + [0] * (top + 1)
    diags = [[] for _ in ranks]
    cleared = frozenset()
    cols = boundary_matrix(cx, last) if last >= 2 else []
    for d in range(last, 1, -1):
        lower = boundary_matrix(cx, d - 1)
        for col in cols:
            acc: dict[int, int] = {}
            for i, a in col.items():
                for r, b in lower[i].items():
                    acc[r] = acc.get(r, 0) + a * b
            if any(acc.values()):
                raise InvariantViolation("boundary composed with boundary is nonzero")
        diags[d], cleared = sparse_invariant_factors(cols, cleared, f"d_{d}")
        ranks[d] = len(diags[d])
        cols = lower

    betti = tuple(sizes[d] - ranks[d] - ranks[d + 1] for d in range(top + 1))
    torsion = tuple(tuple(x for x in diags[d + 1] if x > 1) for d in range(top + 1))
    return HomologyReport(betti, torsion)


# -- reproducible pseudorandom complexes -------------------------------------


def random_complex(
    seed: int,
    n_vertices: int,
    density: float,
    ground: int = 0,
    drop: float = 0.0,
    max_dim: int | None = None,
) -> SimplicialComplex:
    """Seeded flag-ish complex with an optional planted ground simplex.

    Vertices are 0..n-1; the first ``ground`` vertices always span a full
    simplex.  Remaining pairs become edges with probability ``density``
    and the complex is completed to cliques (capped at ``max_dim``); then
    each triangle not inside the ground is removed, together with
    everything above it, with probability ``drop``.

    Cliques grow by bitmasks: ``up[u]`` holds the neighbours v > u, and
    each face carries the mask of the vertices v above its last one that
    extend it, that is, v adjacent to every vertex of the face and no
    dropped triangle (u, w, v) with u, w in the face.  ``closers[u, w]``
    holds the v of the dropped (u, w, v).  Face c + (v,) then carries c's
    mask, cut to ``up[v]``, minus ``closers[u, v]`` for each u in c.  The
    triangles are built before their drops are drawn, so a kept triangle
    loses the closers of all three of its pairs once they are.  Walking
    each mask's bits upward lists every layer in sorted order, and the
    pairs are drawn in ``combinations`` order, so the random stream, and
    with it every complex, is that of a scan over all higher vertices.

    The faces held, finished layers and the one growing, are checked
    against ``HOMOLOGY_CELL_CAP`` before each face is extended, so a dense
    draw raises ``CapExceeded`` at most n faces past the cap.
    """
    if not 0 <= density <= 1 or not 0 <= drop <= 1:
        raise ValidationError("density and drop must lie in [0, 1]")
    if n_vertices < 0:
        raise ValidationError(f"vertex count must be at least 0, got {n_vertices}")
    if not 0 <= ground <= n_vertices:
        raise ValidationError("ground size out of range")
    rng = random.Random(seed)
    up = [0] * n_vertices
    for u, v in itertools.combinations(range(n_vertices), 2):
        if v < ground or rng.random() < density:
            up[u] |= 1 << v

    cap = n_vertices if max_dim is None else max_dim + 1
    layers = []
    layer, masks = [(v,) for v in range(n_vertices)], up
    closers: dict[tuple, int] = {}
    held = 0
    while layer:
        layers.append(tuple(layer))
        held += len(layer)
        if len(layers) >= cap:
            break
        grown, grown_masks = [], []
        for c, ext in zip(layer, masks):
            if held + len(grown) > HOMOLOGY_CELL_CAP:
                raise CapExceeded(
                    f"random complex exceeded the cap of {HOMOLOGY_CELL_CAP} faces while growing "
                    f"faces of size {len(layers) + 1} (sizes 1..{len(layers)} held "
                    f"{', '.join(str(len(f)) for f in layers)} faces)"
                )
            while ext:
                low = ext & -ext
                ext ^= low
                v = low.bit_length() - 1
                mask = ext & up[v]
                if closers:
                    for u in c:
                        mask &= ~closers.get((u, v), 0)
                grown.append(c + (v,))
                grown_masks.append(mask)
        if len(layers) == 2 and drop > 0:
            # drawn in sorted order; no clique holding a dropped one grows
            kept = []
            for t, mask in zip(grown, grown_masks):
                if t[-1] >= ground and rng.random() < drop:
                    closers[t[:2]] = closers.get(t[:2], 0) | 1 << t[2]
                else:
                    kept.append((t, mask))
            grown = [t for t, _ in kept]
            grown_masks = [
                mask & ~(closers.get(t[:2], 0) | closers.get(t[::2], 0) | closers.get(t[1:], 0))
                for t, mask in kept
            ]
        layer, masks = grown, grown_masks
    return SimplicialComplex(tuple(layers))
