"""Finite abstract simplicial complexes, integer homology, and the
pseudosimplex connectivity checker.

Complexes are stored by their maximal faces with a membership oracle;
vertex labels only need to be hashable and sortable.  Homology is exact
over the integers: Smith normal form with a minimal-pivot strategy that
guards coefficient blowup, and a components/loops shortcut for complexes
of dimension <= 1.

Connectivity is verified homologically plus path-connectedness.  That is
a necessary condition for topological m-connectedness, not a proof of
it; every report carries this caveat.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from functools import cached_property

from .count_algebra import NOTE_HOMOLOGY_PROXY
from .errors import CapExceeded, InvariantViolation, ValidationError


@dataclass(frozen=True)
class SimplicialComplex:
    """Downward-closed face family, stored as maximal faces."""

    vertices: tuple
    maximal_faces: tuple[frozenset, ...]

    @staticmethod
    def from_maximal(faces, vertices=None) -> "SimplicialComplex":
        fs = {frozenset(f) for f in faces if f}
        maximal = tuple(
            sorted(
                (f for f in fs if not any(f < g for g in fs)),
                key=lambda f: (len(f), tuple(sorted(f))),
            )
        )
        vs = set()
        for f in maximal:
            vs |= f
        if vertices is not None:
            extra = set(vertices) - vs
            maximal = tuple(
                sorted(
                    list(maximal) + [frozenset({v}) for v in sorted(extra)],
                    key=lambda f: (len(f), tuple(sorted(f))),
                )
            )
            vs |= extra
        return SimplicialComplex(tuple(sorted(vs)), maximal)

    @property
    def dimension(self) -> int:
        return max((len(f) for f in self.maximal_faces), default=0) - 1

    def is_face(self, s) -> bool:
        fs = frozenset(s)
        if not fs:
            return bool(self.maximal_faces)
        return any(fs <= m for m in self.maximal_faces)

    @cached_property
    def _face_cache(self) -> dict[int, frozenset]:
        return {}

    def faces_of_size(self, size: int) -> frozenset:
        """All faces with ``size`` vertices (simplices of dimension size-1)."""
        if size <= 0:
            return frozenset()
        cached = self._face_cache.get(size)
        if cached is None:
            out = set()
            for m in self.maximal_faces:
                if len(m) >= size:
                    out.update(frozenset(c) for c in itertools.combinations(sorted(m), size))
            cached = frozenset(out)
            self._face_cache[size] = cached
        return cached

    def f_vector(self) -> tuple[int, ...]:
        return tuple(len(self.faces_of_size(s)) for s in range(1, self.dimension + 2))

    def to_json_dict(self) -> dict:
        return {
            "vertices": list(self.vertices),
            "maximal_faces": [sorted(f) for f in self.maximal_faces],
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
        return SimplicialComplex.from_maximal([frozenset(f) for f in faces], vertices=vertices)


# -- pseudosimplex framework ------------------------------------------------


def is_m_pseudosimplex(cx: SimplicialComplex, sigma, m: int) -> bool:
    """True iff every subset of up to m+1 vertices of sigma spans a face.

    Any subset of an m-pseudosimplex is again one, and the predicate is
    monotone decreasing in m.
    """
    s = sorted(set(sigma))
    for size in range(1, min(len(s), m + 1) + 1):
        faces = cx.faces_of_size(size)
        for c in itertools.combinations(s, size):
            if frozenset(c) not in faces:
                return False
    return True


def m_joinable(cx: SimplicialComplex, sigma, tau, m: int) -> bool:
    """True iff the union of the two vertex sets is an m-pseudosimplex."""
    return is_m_pseudosimplex(cx, set(sigma) | set(tau), m)


@dataclass(frozen=True)
class FlagCheck:
    holds: bool
    counterexample: tuple[tuple, tuple] | None = None


def _pseudosimplices_up_to(cx: SimplicialComplex, m: int, max_size: int) -> list[tuple]:
    out = []
    for size in range(1, max_size + 1):
        for c in itertools.combinations(cx.vertices, size):
            if is_m_pseudosimplex(cx, c, m):
                out.append(c)
    return out


def is_m_flag_wrt(cx: SimplicialComplex, sigma, m: int) -> FlagCheck:
    """Exhaustively check the flag condition for sigma.

    Quantifying over rho of size <= m+2 and pseudofaces tau of size <= m+1
    is complete: a violation is a missing face B of size <= m+1 inside
    rho union tau, and (B cap rho, B cap tau) is already a violating pair
    within these caps.
    """
    sig = sorted(set(sigma))
    if not is_m_pseudosimplex(cx, sig, m):
        raise ValidationError("sigma is not an m-pseudosimplex")
    pair_faces = cx.faces_of_size(2)
    single_faces = cx.faces_of_size(1)

    def joined(a, b) -> bool:
        if a == b:
            return frozenset({a}) in single_faces
        return frozenset({a, b}) in pair_faces

    rhos = _pseudosimplices_up_to(cx, m, m + 2)
    taus = [
        c
        for size in range(1, min(len(sig), m + 1) + 1)
        for c in itertools.combinations(sig, size)
    ]
    for rho in rhos:
        for tau in taus:
            if not all(joined(a, b) for a in rho for b in tau):
                continue
            if not m_joinable(cx, rho, tau, m):
                return FlagCheck(False, (rho, tau))
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


def lemma_connectivity_bound(
    cx: SimplicialComplex,
    sigma,
    m: int,
    k: int,
    search_cap: int = 200_000,
) -> ConnectivityBound:
    """Verify the hypotheses of the pseudosimplex connectivity lemma and
    return the implied connectivity bound, or the failed hypothesis.

    Hypotheses: sigma is an m-pseudosimplex of dimension l, the complex is
    m-flag with respect to sigma, and every vertex is m-joinable to some
    (l - k)-pseudoface of sigma.
    """
    if k < 1:
        raise ValidationError("k must be >= 1")
    if m < 0:
        raise ValidationError("m must be >= 0")
    sig = tuple(sorted(set(sigma)))
    if not set(sig) <= set(cx.vertices):
        return ConnectivityBound(None, "sigma contains unknown vertices", sig, m, k)
    if not is_m_pseudosimplex(cx, sig, m):
        return ConnectivityBound(None, "sigma is not an m-pseudosimplex", sig, m, k)
    flag = is_m_flag_wrt(cx, sig, m)
    if not flag.holds:
        return ConnectivityBound(
            None,
            f"complex is not m-flag with respect to sigma: rho={flag.counterexample[0]}, "
            f"tau={flag.counterexample[1]}",
            sig,
            m,
            k,
        )
    l = len(sig) - 1
    size = max(l - k + 1, 0)
    if size > 0:
        pair_faces = cx.faces_of_size(2)
        single_faces = cx.faces_of_size(1)
        for v in cx.vertices:
            cands = [
                w
                for w in sig
                if (frozenset({v, w}) in pair_faces)
                or (w == v and frozenset({v}) in single_faces)
            ]
            if len(cands) < size:
                return ConnectivityBound(
                    None, f"vertex {v!r} is not joinable to enough of sigma", sig, m, k
                )
            total = 1
            for t in range(size):
                total = total * (len(cands) - t) // (t + 1)
            if total > search_cap:
                return ConnectivityBound(
                    None,
                    f"pseudoface search for vertex {v!r} exceeds cap {search_cap}",
                    sig,
                    m,
                    k,
                )
            if not any(
                m_joinable(cx, (v,), tau, m)
                for tau in itertools.combinations(cands, size)
            ):
                return ConnectivityBound(
                    None,
                    f"vertex {v!r} is not m-joinable to any (l-k)-pseudoface of sigma",
                    sig,
                    m,
                    k,
                )
    return ConnectivityBound(min(l // k - 1, m - 1), None, sig, m, k)


# -- integer homology --------------------------------------------------------


def smith_normal_form(rows: list[list[int]], ncols: int) -> list[int]:
    """Diagonal invariant factors of an integer matrix (nonzero entries,
    each dividing the next).  Pivots are chosen with minimal absolute
    value to keep coefficients small."""
    A = [list(r) for r in rows]
    m = len(A)
    n = ncols
    diag: list[int] = []
    t = 0
    while t < m and t < n:
        piv = None
        best = None
        for i in range(t, m):
            row = A[i]
            for j in range(t, n):
                v = row[j]
                if v and (best is None or abs(v) < best):
                    piv, best = (i, j), abs(v)
                    if best == 1:
                        break
            if best == 1:
                break
        if piv is None:
            break
        i0, j0 = piv
        A[t], A[i0] = A[i0], A[t]
        if j0 != t:
            for r in A:
                r[t], r[j0] = r[j0], r[t]
        while True:
            changed = False
            for i in range(t + 1, m):
                q = A[i][t] // A[t][t]
                if q:
                    ri, rt = A[i], A[t]
                    for j in range(t, n):
                        ri[j] -= q * rt[j]
                if A[i][t]:
                    A[t], A[i] = A[i], A[t]
                    changed = True
                    break
            if changed:
                continue
            for j in range(t + 1, n):
                q = A[t][j] // A[t][t]
                if q:
                    for i in range(t, m):
                        A[i][j] -= q * A[i][t]
                if A[t][j]:
                    for i in range(t, m):
                        A[i][t], A[i][j] = A[i][j], A[i][t]
                    changed = True
                    break
            if changed:
                continue
            p = A[t][t]
            fix = None
            for i in range(t + 1, m):
                if any(A[i][j] % p for j in range(t + 1, n)):
                    fix = i
                    break
            if fix is None:
                break
            rt, rf = A[t], A[fix]
            for j in range(t, n):
                rt[j] += rf[j]
        diag.append(abs(A[t][t]))
        t += 1
    return diag


def boundary_matrix(cx: SimplicialComplex, d: int) -> tuple[list[list[int]], int]:
    """Integer boundary matrix from d-simplices to (d-1)-simplices.

    Returns (rows, ncols): rows are indexed by the sorted (d-1)-faces and
    columns by the sorted d-faces, with the usual alternating signs.
    """
    lo = sorted(cx.faces_of_size(d), key=lambda f: tuple(sorted(f)))
    hi = sorted(cx.faces_of_size(d + 1), key=lambda f: tuple(sorted(f)))
    lo_index = {f: i for i, f in enumerate(lo)}
    rows = [[0] * len(hi) for _ in lo]
    for j, f in enumerate(hi):
        vs = sorted(f)
        for p in range(len(vs)):
            face = frozenset(vs[:p] + vs[p + 1:])
            rows[lo_index[face]][j] = 1 if p % 2 == 0 else -1
    return rows, len(hi)


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
    parent = {v: v for v in cx.vertices}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for f in cx.maximal_faces:
        vs = sorted(f)
        for a, b in zip(vs, vs[1:]):
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[ra] = rb
    return len({find(v) for v in cx.vertices})


def homology(
    cx: SimplicialComplex,
    max_dim: int | None = None,
    face_cap: int = 2_000_000,
) -> HomologyReport:
    """Integer simplicial homology: Betti numbers and torsion invariants.

    Complexes of dimension <= 1 use the components/loops formulas (H_1 of
    a graph is free).  Higher dimensions run Smith normal form on each
    boundary matrix; the total face count is capped.
    """
    if not cx.vertices:
        return HomologyReport((), ())
    dim = cx.dimension
    top = dim if max_dim is None else min(max_dim, dim)

    if dim <= 1:
        c = _components(cx)
        n_e = len(cx.faces_of_size(2))
        betti = [c]
        if top >= 1:
            betti.append(n_e - len(cx.vertices) + c)
        return HomologyReport(tuple(betti), tuple(() for _ in betti))

    sizes = [len(cx.faces_of_size(s)) for s in range(1, top + 3)]
    if sum(sizes) > face_cap:
        raise CapExceeded(
            f"homology face budget exceeded: {sum(sizes)} faces > cap {face_cap}"
        )

    matrices = {d: boundary_matrix(cx, d) for d in range(1, top + 2)}

    # boundary-of-boundary must vanish
    for d in range(1, top + 1):
        lo_rows, _ = matrices[d]
        hi_rows, hi_n = matrices[d + 1]
        for j in range(hi_n):
            col = [hi_rows[i][j] for i in range(len(hi_rows))]
            for r in range(len(lo_rows)):
                acc = sum(lo_rows[r][i] * col[i] for i in range(len(col)) if col[i])
                if acc != 0:
                    raise InvariantViolation("boundary composed with boundary is nonzero")

    diags = {d: smith_normal_form(*rows_n) for d, rows_n in matrices.items()}
    ranks = {d: len(diags[d]) for d in matrices}
    ranks[0] = 0
    ranks[top + 2] = 0

    betti = []
    torsion = []
    for d in range(0, top + 1):
        n_d = sizes[d]
        r_d = ranks.get(d, 0)
        r_up = ranks.get(d + 1, 0) if d + 1 <= dim else 0
        betti.append(n_d - r_d - r_up)
        if d + 1 <= dim:
            torsion.append(tuple(x for x in diags.get(d + 1, []) if abs(x) > 1))
        else:
            torsion.append(())
    return HomologyReport(tuple(betti), tuple(torsion))


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
    """
    if not 0 <= density <= 1 or not 0 <= drop <= 1:
        raise ValidationError("density and drop must lie in [0, 1]")
    if not 0 <= ground <= n_vertices:
        raise ValidationError("ground size out of range")
    rng = random.Random(seed)
    verts = list(range(n_vertices))
    ground_set = set(range(ground))
    adj: set[frozenset] = set()
    for i, j in itertools.combinations(verts, 2):
        if i in ground_set and j in ground_set:
            adj.add(frozenset({i, j}))
        elif rng.random() < density:
            adj.add(frozenset({i, j}))

    cap = n_vertices if max_dim is None else max_dim + 1
    cliques: list[frozenset] = [frozenset({v}) for v in verts]
    layer = [(v,) for v in verts]
    size = 1
    while layer and size < cap:
        nxt = []
        for c in layer:
            for v in range(c[-1] + 1, n_vertices):
                if all(frozenset({u, v}) in adj for u in c):
                    nxt.append(c + (v,))
        cliques.extend(frozenset(c) for c in nxt)
        layer = nxt
        size += 1

    dropped: set[frozenset] = set()
    if drop > 0:
        triangles = sorted(
            (c for c in cliques if len(c) == 3), key=lambda f: tuple(sorted(f))
        )
        for tri in triangles:
            if tri <= ground_set:
                continue
            if rng.random() < drop:
                dropped.add(tri)

    def kept(face: frozenset) -> bool:
        if len(face) < 3 or not dropped:
            return True
        return not any(
            frozenset(c) in dropped for c in itertools.combinations(sorted(face), 3)
        )

    faces = [c for c in cliques if kept(c)]
    return SimplicialComplex.from_maximal(faces, vertices=verts)
