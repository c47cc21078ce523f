import functools
import itertools
import json
import os
import random
import subprocess
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

import gogtool as gt
from gogtool import simplicial
from gogtool.errors import CapExceeded, InvariantViolation, ValidationError
from gogtool.simplicial import (
    FlagCheck,
    SimplicialComplex,
    boundary_matrix,
    homology,
    is_m_flag_wrt,
    is_m_pseudosimplex,
    lemma_connectivity_bound,
    m_joinable,
    random_complex,
    smith_normal_form,
    sparse_invariant_factors,
)

from conftest import DATA, assert_canonical

HOLLOW = SimplicialComplex.from_maximal([{0, 1}, {1, 2}, {0, 2}])
SPHERE = SimplicialComplex.from_maximal([{0, 1, 2}, {0, 1, 3}, {0, 2, 3}, {1, 2, 3}])
POINTS = SimplicialComplex.from_maximal([{0}, {1}])
RP2 = SimplicialComplex.from_maximal(
    [
        {1, 2, 3}, {1, 3, 4}, {1, 2, 6}, {1, 4, 5}, {1, 5, 6},
        {2, 3, 5}, {2, 4, 5}, {2, 4, 6}, {3, 4, 6}, {3, 5, 6},
    ]
)


def _klein_bottle() -> SimplicialComplex:
    """The 3 x 3 grid on the unit square, glued left to right and, with a
    flip, bottom to top: 9 vertices, 27 edges, 18 triangles."""

    def label(i, j):
        return 3 * (j % 3) + (-i if j == 3 else i) % 3

    faces = []
    for i in range(3):
        for j in range(3):
            a, b, c, d = label(i, j), label(i + 1, j), label(i, j + 1), label(i + 1, j + 1)
            faces += [{a, b, d}, {a, c, d}]
    return SimplicialComplex.from_maximal(faces)


def _moore_space_z3() -> SimplicialComplex:
    """A disk whose boundary of 9 edges wraps 3 times round the circle
    0-1-2, through a ring of 9 inner vertices 3..11 and a centre 12."""
    faces = []
    for k in range(9):
        x, y, m, n = k % 3, (k + 1) % 3, 3 + k, 3 + (k + 1) % 9
        faces += [{x, y, m}, {y, m, n}, {m, n, 12}]
    return SimplicialComplex.from_maximal(faces)


KLEIN = _klein_bottle()
MOORE3 = _moore_space_z3()


def test_from_maximal_normalises():
    cx = SimplicialComplex.from_maximal([{0, 1}, {1}, {0, 1}], vertices=[0, 1, 2])
    assert cx.maximal_faces == ((2,), (0, 1))
    assert cx.vertices == (0, 1, 2)
    assert cx.is_face({0}) and cx.is_face({0, 1}) and not cx.is_face({0, 2})


def test_every_producer_emits_sorted_layers():
    made = SimplicialComplex.from_maximal([{3, 1}, (2, 0, 1), [1, 3], {5}], vertices=[9, 7, 0])
    assert made.faces[:2] == (
        tuple((v,) for v in (0, 1, 2, 3, 5, 7, 9)),
        ((0, 1), (0, 2), (1, 2), (1, 3)),
    )
    read = SimplicialComplex.from_json_dict(
        {"vertices": ["d", "b"], "maximal_faces": [["c", "a"], ["b", "c", "a"], ["a", "c"]]}
    )
    assert read.vertices == ("a", "b", "c", "d")
    drawn = [
        random_complex(seed, 9, 0.6, ground=3, drop=drop, max_dim=max_dim)
        for seed in range(4)
        for drop in (0.0, 0.5)
        for max_dim in (None, 1, 2)
    ]
    for cx in [made, read, SimplicialComplex.from_maximal([]), *drawn]:
        assert_canonical(cx)


def test_f_vector_and_json_roundtrip():
    assert SPHERE.f_vector() == (4, 6, 4)
    again = SimplicialComplex.from_json_dict(SPHERE.to_json_dict())
    assert again == SPHERE


def test_homology_known_values():
    assert homology(HOLLOW).betti == (1, 1)
    assert homology(SPHERE).betti == (1, 0, 1)
    assert homology(POINTS).betti == (2,)
    two_triangles = SimplicialComplex.from_maximal([{0, 1, 2}, {1, 2, 3}])
    assert homology(two_triangles).betti == (1, 0, 0)


def test_homology_torsion_projective_plane():
    rep = homology(RP2)
    assert rep.betti == (1, 0, 0)
    assert rep.torsion == ((), (2,), ())


def _with_solid_tetrahedra(cx: SimplicialComplex) -> SimplicialComplex:
    """``cx`` with a tetrahedron glued on each triangle at a new apex: the
    same homology, but each tetrahedron's triangles are free faces of d_3,
    so the top-down reduction clears one of their columns from d_2."""
    apex = itertools.count(max(cx.vertices) + 1)
    tetrahedra = [set(t) | {next(apex)} for t in sorted(cx.faces_of_size(3))]
    return SimplicialComplex.from_maximal(list(cx.maximal_faces) + tetrahedra)


def test_homology_torsion_matches_dense_oracle():
    cases = ((RP2, (1, 0, 0), (2,)), (KLEIN, (1, 1, 0), (2,)), (MOORE3, (1, 0, 0), (3,)))
    for base, betti, torsion in cases:
        thick = _with_solid_tetrahedra(base)
        assert homology(base) == gt.HomologyReport(betti, ((), torsion, ()))
        assert homology(thick) == gt.HomologyReport(betti + (0,), ((), torsion, (), ()))
        for cx in (base, thick):
            for max_dim in (None, 0, 1, 2):
                assert homology(cx, max_dim=max_dim) == dense_homology(cx, max_dim=max_dim)


def test_homology_caveat_attached():
    assert "necessary condition" in homology(HOLLOW).caveat


def test_homology_face_cap(monkeypatch):
    monkeypatch.setattr(simplicial, "HOMOLOGY_CELL_CAP", 3)
    with pytest.raises(CapExceeded):
        homology(SPHERE)


def test_dense_block_cap(monkeypatch):
    # 2 I_3 holds no unit entry, so all of it is the dense block: 3 x 3 cells
    monkeypatch.setattr(simplicial, "HOMOLOGY_CELL_CAP", 5)
    with pytest.raises(CapExceeded, match="dense block left of the matrix .* 3 x 3 = 9 entries"):
        sparse_invariant_factors([{0: 2}, {1: 2}, {2: 2}])
    monkeypatch.setattr(simplicial, "HOMOLOGY_CELL_CAP", 9)
    assert sparse_invariant_factors([{0: 2}, {1: 2}, {2: 2}]) == ([2, 2, 2], set())


def test_smith_normal_form_basics():
    assert smith_normal_form([[1, 0], [0, 1]], 2) == [1, 1]
    assert smith_normal_form([[2, 4], [4, 8]], 2) == [2]
    assert smith_normal_form([[2, 0], [0, 3]], 2) == [1, 6]
    assert smith_normal_form([[0, 0], [0, 0]], 2) == []
    assert smith_normal_form([], 0) == []
    # gcds of minors: d1=2, d1*d2=4, d1*d2*d3=|det|=624
    d = smith_normal_form([[2, 4, 4], [-6, 6, 12], [10, 4, 16]], 3)
    assert d == [2, 2, 156]
    for a, b in zip(d, d[1:]):
        assert b % a == 0


def test_smith_normal_form_against_sympy():
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import smith_normal_form as sympy_snf

    rng = random.Random(8)
    for _ in range(20):
        m = rng.randint(1, 5)
        n = rng.randint(1, 5)
        rows = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(m)]
        ours = smith_normal_form(rows, n)
        theirs = sympy_snf(sympy.Matrix(rows))
        ref = sorted(
            abs(theirs[i, i]) for i in range(min(m, n)) if theirs[i, i] != 0
        )
        assert sorted(ours) == ref


def _is_chain(diag):
    return all(b % a == 0 for a, b in zip(diag, diag[1:]))


def test_smith_normal_form_matches_sympy_up_to_8x8():
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import invariant_factors

    rng = random.Random(30)
    cases = [_dense_boundary(RP2, 2)]
    for _ in range(100):
        m = rng.randint(1, 8)
        n = rng.randint(1, 8)
        cases.append(([[rng.randint(-30, 30) for _ in range(n)] for _ in range(m)], n))
    for rows, n in cases:
        ours = smith_normal_form(rows, n)
        theirs = invariant_factors(sympy.Matrix(rows), domain=sympy.ZZ)
        assert ours == [abs(x) for x in theirs if x], rows
        assert _is_chain(ours)


def test_smith_normal_form_chains_a_diagonal():
    # a +-1 boundary matrix almost never leaves a diagonal that is no chain
    assert smith_normal_form([[4, 0, 0], [0, 6, 0], [0, 0, 10]], 3) == [2, 2, 60]
    assert smith_normal_form([[9, 0], [0, 6]], 2) == [3, 18]


def test_smith_normal_form_unimodular_invariance():
    rng = random.Random(31)
    for _ in range(200):
        m = rng.randint(1, 6)
        n = rng.randint(1, 6)
        rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
        expected = smith_normal_form(rows, n)
        assert _is_chain(expected)
        cols = rng.sample(range(n), n)
        b = [[rows[i][j] for j in cols] for i in rng.sample(range(m), m)]
        for i in range(m):
            if rng.random() < 0.5:
                b[i] = [-x for x in b[i]]
        for j in range(n):
            if rng.random() < 0.5:
                for r in b:
                    r[j] = -r[j]
        for _ in range(3):
            c = rng.randint(-3, 3)
            if m > 1:
                i, k = rng.sample(range(m), 2)
                b[i] = [x + c * y for x, y in zip(b[i], b[k])]
            if n > 1:
                j, k = rng.sample(range(n), 2)
                for r in b:
                    r[j] += c * r[k]
        assert smith_normal_form(b, n) == expected, (rows, b)


def _densified(cols, nrows):
    rows = [[0] * len(cols) for _ in range(nrows)]
    for j, col in enumerate(cols):
        for i, a in col.items():
            rows[i][j] = a
    return rows


@st.composite
def _small_int_matrices(draw):
    """Integer matrices up to 8 x 8 with entries in -3..3; half of them
    hold no unit entry, so only the dense path runs on them."""
    m, n = draw(st.integers(0, 8)), draw(st.integers(0, 8))
    entries = draw(st.sampled_from((st.integers(-3, 3), st.sampled_from((-3, -2, 0, 2, 3)))))
    return [draw(st.lists(entries, min_size=n, max_size=n)) for _ in range(m)], n


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(_small_int_matrices())
@example(([[1, 1, 0], [1, 0, 1], [0, 1, 1]], 3))  # the first pivot fills in; a 2 is left
@example(([[2, 3], [3, -2]], 2))  # no unit entry, yet a factor 1
def test_sparse_invariant_factors_match_dense_snf(matrix):
    rows, n = matrix
    cols = [{i: row[j] for i, row in enumerate(rows) if row[j]} for j in range(n)]
    assert sparse_invariant_factors(cols)[0] == smith_normal_form(rows, n)


def test_boundary_matrix_squares_to_zero():
    rows1 = _densified(boundary_matrix(SPHERE, 1), len(SPHERE.faces_of_size(1)))
    rows2 = _densified(boundary_matrix(SPHERE, 2), len(SPHERE.faces_of_size(2)))
    n2 = len(SPHERE.faces_of_size(3))
    prod = [
        [sum(rows1[i][t] * rows2[t][j] for t in range(len(rows2))) for j in range(n2)]
        for i in range(len(rows1))
    ]
    assert all(v == 0 for row in prod for v in row)


def _dense_boundary(cx: SimplicialComplex, d: int) -> tuple[list[list[int]], int]:
    lo = sorted(cx.faces_of_size(d), key=lambda f: tuple(sorted(f)))
    hi = sorted(cx.faces_of_size(d + 1), key=lambda f: tuple(sorted(f)))
    lo_index = {tuple(sorted(f)): i for i, f in enumerate(lo)}
    rows = [[0] * len(hi) for _ in lo]
    for j, f in enumerate(hi):
        vs = sorted(f)
        for p in range(len(vs)):
            face = tuple(vs[:p] + vs[p + 1:])
            rows[lo_index[face]][j] = 1 if p % 2 == 0 else -1
    return rows, len(hi)


def _dense_components(cx: SimplicialComplex) -> int:
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


def dense_homology(cx: SimplicialComplex, max_dim: int | None = None) -> gt.HomologyReport:
    """Test oracle for ``homology``: dense boundary matrices, the dense
    boundary-of-boundary loop, and the components/loops formulas for
    dimension <= 1."""
    if not cx.vertices:
        return gt.HomologyReport((), ())
    dim = cx.dimension
    top = dim if max_dim is None else min(max_dim, dim)

    if dim <= 1:
        c = _dense_components(cx)
        n_e = len(cx.faces_of_size(2))
        betti = [c]
        if top >= 1:
            betti.append(n_e - len(cx.vertices) + c)
        return gt.HomologyReport(tuple(betti), tuple(() for _ in betti))

    sizes = [len(cx.faces_of_size(s)) for s in range(1, top + 3)]
    matrices = {d: _dense_boundary(cx, d) for d in range(1, top + 2)}

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
    return gt.HomologyReport(tuple(betti), tuple(torsion))


def _crit06_mix(count: int = 500):
    """Seeded complexes of the criterion-06 mix."""
    for seed in range(count):
        n = 6 + seed % 7
        density = (0.35, 0.5, 0.65)[seed % 3]
        drop = 0.0 if seed % 2 == 0 else 0.15
        yield random_complex(seed, n, density, ground=3 + seed % 3, drop=drop)


def test_homology_matches_dense_oracle():
    cases = [(cx, max_dim) for cx in (RP2, HOLLOW, SPHERE, POINTS) for max_dim in (None, 0, 1, 3)]
    # (seed // 2) % 4 varies independently of the mix's drop (seed % 2)
    cases += [(cx, (None, 0, 1, 3)[(seed // 2) % 4]) for seed, cx in enumerate(_crit06_mix())]
    # sparse graphs of more than 97 edges, whose components hang on single edges
    cases += [(random_complex(seed, 60, 0.06, max_dim=1), None) for seed in range(10)]
    dims = set()
    for cx, max_dim in cases:
        assert homology(cx, max_dim=max_dim) == dense_homology(cx, max_dim=max_dim), (cx, max_dim)
        dims.add(cx.dimension)
    assert dims >= {0, 1, 2, 3, 4, 5}


def test_link_homology_matches_dense_oracle(loop33, amalgam33):
    f_vectors = []
    for system, height in ((loop33, 10), (amalgam33, 9)):
        for x in gt.sf_vertices_at_height(height, system.table, system.base):
            cx = gt.descending_link(x, system.table, system.base).to_complex()
            f_vectors.append(cx.f_vector())
            for max_dim in (None, 0, 1):
                assert homology(cx, max_dim=max_dim) == dense_homology(cx, max_dim=max_dim)
    assert f_vectors == [(200,), (126, 315)]


def test_boundary_of_boundary_guard_fires(monkeypatch):
    real = simplicial.boundary_matrix

    def flipped(cx, d):
        cols = real(cx, d)
        if d == 2:
            row, sign = next(iter(cols[0].items()))
            cols[0][row] = -sign
        return cols

    monkeypatch.setattr(simplicial, "boundary_matrix", flipped)
    with pytest.raises(InvariantViolation):
        homology(SPHERE)


def test_faces_match_their_definitions():
    for cx in itertools.islice(_crit06_mix(), 0, 500, 5):
        faces = [f for level in cx.faces for f in level]
        assert all(f == tuple(sorted(set(f))) for f in faces)
        assert cx.maximal_faces == tuple(
            sorted(
                (f for f in faces if not any(set(f) < set(g) for g in faces)),
                key=lambda f: (len(f), f),
            )
        )
        candidates = [c for size in range(4) for c in itertools.combinations(cx.vertices, size)]
        candidates += [f + (v,) for f in faces for v in cx.vertices if v > f[-1]]
        for c in candidates:
            expected = any(set(c) <= set(m) for m in cx.maximal_faces)
            assert cx.is_face(c) == expected, (cx, c)
            assert cx.is_face(reversed(c)) == expected


def test_pseudosimplex_examples():
    assert is_m_pseudosimplex(HOLLOW, {0, 1, 2}, 1)
    assert not is_m_pseudosimplex(HOLLOW, {0, 1, 2}, 2)
    assert is_m_pseudosimplex(HOLLOW, {0}, 5)
    assert not is_m_pseudosimplex(HOLLOW, {7}, 0)


def test_pseudosimplex_monotone_and_hereditary():
    rng = random.Random(5)
    for seed in range(10):
        cx = random_complex(seed, 8, 0.5)
        for _ in range(10):
            size = rng.randint(1, 4)
            sigma = rng.sample(range(8), size)
            for m in range(0, 4):
                if is_m_pseudosimplex(cx, sigma, m + 1):
                    assert is_m_pseudosimplex(cx, sigma, m)
            if is_m_pseudosimplex(cx, sigma, 2):
                for sub_size in range(1, size):
                    for sub in itertools.combinations(sigma, sub_size):
                        assert is_m_pseudosimplex(cx, sub, 2)


def test_m_joinable_examples():
    square = SimplicialComplex.from_maximal([{0, 1}, {1, 2}, {2, 3}, {0, 3}])
    assert not m_joinable(square, {0, 1}, {2, 3}, 1)
    full = SimplicialComplex.from_maximal([{0, 1, 2, 3}])
    assert m_joinable(full, {0, 1}, {2, 3}, 2)
    assert m_joinable(HOLLOW, {0, 1}, {0, 1}, 1)  # idempotent on a pseudosimplex


def test_flag_check_full_simplex():
    full = SimplicialComplex.from_maximal([{0, 1, 2, 3, 4}])
    for m in (1, 2, 3):
        assert is_m_flag_wrt(full, (0, 1), m).holds


def test_flag_check_counterexample():
    # a missing mixed triangle: rho={1,2} and tau={0} are vertex-wise
    # joinable but the union is no 2-pseudosimplex
    res = is_m_flag_wrt(HOLLOW, (0,), 2)
    assert not res.holds
    rho, tau = res.counterexample
    assert set(rho) | set(tau) == {0, 1, 2}


def test_flag_check_ignores_vertex_order():
    # the hollow triangle with its vertices listed in reverse: B = (0, 1, 2)
    # is still found, as sorted labels rank the vertices
    cx = SimplicialComplex.from_maximal([(1, 2), (0, 2), (0, 1)], vertices=[2, 1, 0])
    assert is_m_flag_wrt(cx, (0,), 2) == FlagCheck(False, ((1, 2), (0,)))
    assert lemma_connectivity_bound(cx, (0,), 2, 1).failed == (
        "complex is not m-flag with respect to sigma: rho=(1, 2), tau=(0,)"
    )


def _pseudosimplices_up_to(cx: SimplicialComplex, m: int, max_size: int) -> list[tuple]:
    out = []
    for size in range(1, max_size + 1):
        for c in itertools.combinations(cx.vertices, size):
            if is_m_pseudosimplex(cx, c, m):
                out.append(c)
    return out


def exhaustive_flag_check(cx: SimplicialComplex, sigma, m: int, rhos: list[tuple]) -> FlagCheck:
    """Definition-level oracle for ``is_m_flag_wrt``, given ``rhos``, the
    m-pseudosimplices ``_pseudosimplices_up_to(cx, m, m + 2)``, which do
    not depend on sigma.

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
            return (a,) in single_faces
        return tuple(sorted((a, b))) in pair_faces

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


def _relabelled(cx: SimplicialComplex) -> SimplicialComplex:
    # "v10" sorts before "v2", so str order differs from int order
    return SimplicialComplex.from_maximal(
        [{f"v{v}" for v in face} for face in cx.maximal_faces]
    )


def _flag_cases():
    """Seeded (complex, sigmas, m): the criterion-06 mix, denser complexes,
    and heavier triangle drops, each also with str labels; the sigmas are
    those that are m-pseudosimplices."""
    for seed in range(60):
        n = 5 + seed % 8
        density = (0.35, 0.5, 0.65, 0.8)[seed % 4]
        ground = 2 + seed % 3
        drop = (0.0, 0.15, 0.4)[seed % 3]
        cx = random_complex(seed, n, density, ground=ground, drop=drop)
        rng = random.Random(seed)
        sigmas = [tuple(range(ground)), tuple(sorted(rng.sample(range(n), 2)))]
        for c, label in ((cx, int), (_relabelled(cx), "v{}".format)):
            for m in range(5):
                kept = [tuple(map(label, s)) for s in sigmas if is_m_pseudosimplex(cx, s, m)]
                if kept:
                    yield c, kept, m


def test_flag_check_matches_exhaustive_oracle():
    violations = 0
    for cx, sigmas, m in _flag_cases():
        rhos = _pseudosimplices_up_to(cx, m, m + 2)
        for sigma in sigmas:
            fast = is_m_flag_wrt(cx, sigma, m)
            assert fast.holds == exhaustive_flag_check(cx, sigma, m, rhos).holds, (cx, sigma, m)
            if fast.holds:
                continue
            violations += 1
            rho, tau = fast.counterexample
            assert is_m_pseudosimplex(cx, rho, m)
            assert tau and set(tau) <= set(sigma)
            assert all(cx.is_face({a, b}) for a in rho for b in tau)
            assert not m_joinable(cx, rho, tau, m)
    assert violations >= 50


@functools.cache
def reference_flag_check(cx: SimplicialComplex, sigma: tuple, m: int) -> FlagCheck:
    """``is_m_flag_wrt`` with no pruning: every B of 3..m+1 vertices, by
    size and then in lexicographic order of the sorted labels; the first
    minimal non-face that meets sigma gives the counterexample.  Cached,
    as the reference lemma asks it once for each k."""
    sig = set(sigma)
    if not is_m_pseudosimplex(cx, sig, m):
        raise ValidationError("sigma is not an m-pseudosimplex")
    for size in range(3, m + 2):
        for b in itertools.combinations(sorted(cx.vertices), size):
            # every proper subset a face: an (|B| - 2)-pseudosimplex
            if (
                not sig.isdisjoint(b)
                and b not in cx.faces_of_size(size)
                and is_m_pseudosimplex(cx, b, size - 2)
            ):
                return FlagCheck(
                    False,
                    (tuple(u for u in b if u not in sig), tuple(u for u in b if u in sig)),
                )
    return FlagCheck(True)


def reference_lemma_bound(cx: SimplicialComplex, sigma, m: int, k: int) -> tuple:
    """``lemma_connectivity_bound`` as (bound, failed, sigma), from the
    definitions: ``is_m_pseudosimplex``, ``reference_flag_check`` and
    ``m_joinable`` over every (l-k)-pseudoface drawn from the vertices of
    sigma that are v or its neighbours."""
    sig = tuple(sorted(set(sigma)))
    if not set(sig) <= set(cx.vertices):
        return None, "sigma contains unknown vertices", sig
    if not is_m_pseudosimplex(cx, sig, m):
        return None, "sigma is not an m-pseudosimplex", sig
    flag = reference_flag_check(cx, sig, m)
    if not flag.holds:
        rho, tau = flag.counterexample
        return None, f"complex is not m-flag with respect to sigma: rho={rho}, tau={tau}", sig
    l = len(sig) - 1
    size = max(l - k + 1, 0)
    if size > 0:
        for v in cx.vertices:
            cands = [w for w in sig if cx.is_face({v, w})]
            if len(cands) < size:
                return None, f"vertex {v!r} is not joinable to enough of sigma", sig
            if not any(
                m_joinable(cx, (v,), tau, m) for tau in itertools.combinations(cands, size)
            ):
                return None, (
                    f"vertex {v!r} is not m-joinable to any (l-k)-pseudoface of sigma"
                ), sig
    return min(l // k - 1, m - 1), None, sig


def _lemma_cases():
    """Seeded (complex, sigmas): the criterion-06 mix, each also with str
    labels; sigma is the ground, random pairs and triples, and an unknown
    vertex."""
    for seed in range(24):
        n = 6 + seed % 7
        s = 3 + seed % 3
        cx = random_complex(
            seed, n, (0.35, 0.5, 0.65)[seed % 3], ground=s, drop=(0.0, 0.15)[seed % 2]
        )
        rng = random.Random(seed)
        sigmas = [tuple(range(s))] + [tuple(rng.sample(range(n), size)) for size in (2, 2, 3, 3)]
        for c, label in ((cx, int), (_relabelled(cx), "v{}".format)):
            yield c, [tuple(map(label, sigma)) for sigma in sigmas] + [(label(n),)]


def test_lemma_checker_matches_reference():
    kinds = ("bound", "sigma contains", "sigma is not", "complex is not", "vertex")
    outcomes = set()
    for cx, sigmas in _lemma_cases():
        for sigma in sigmas:
            for m in range(5):
                for k in (1, 2, 3):
                    cb = lemma_connectivity_bound(cx, sigma, m, k)
                    want = reference_lemma_bound(cx, sigma, m, k)
                    assert (cb.bound, cb.failed, cb.sigma) == want, (cx, sigma, m, k)
                    outcomes.add(next(w for w in kinds if (want[1] or "bound").startswith(w)))
                try:
                    want = reference_flag_check(cx, sigma, m)
                except ValidationError:
                    with pytest.raises(ValidationError):
                        is_m_flag_wrt(cx, sigma, m)
                    continue
                assert is_m_flag_wrt(cx, sigma, m) == want, (cx, sigma, m)
    # every hypothesis fails somewhere, and some bounds verify
    assert outcomes == set(kinds)


def test_flag_counterexample_independent_of_hash_seed(tmp_path):
    # the 1-skeleton of a 4-simplex: every triangle is a minimal non-face
    labels = ["v10", "v2", "v7", "v30", "v4"]
    cx = tmp_path / "complex.json"
    cx.write_text(json.dumps({"maximal_faces": [list(e) for e in itertools.combinations(labels, 2)]}))
    outputs = []
    for hash_seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(DATA.parent / "src"), env.get("PYTHONPATH")])
        )
        outputs.append(subprocess.run(
            [sys.executable, "-m", "gogtool.cli", "lemma-check", "--in", str(cx),
             "--sigma", "v7,v30", "-m", "2", "-k", "1"],
            env=env, check=True, capture_output=True,
        ).stdout)
    assert outputs[0] == outputs[1]
    assert "rho=('v10', 'v2'), tau=('v30',)" in json.loads(outputs[0])["failed_hypothesis"]


def test_flag_requires_pseudosimplex_sigma():
    with pytest.raises(ValidationError):
        is_m_flag_wrt(HOLLOW, (0, 1, 2), 2)


def test_connectivity_bound_full_simplex():
    full = SimplicialComplex.from_maximal([{0, 1, 2, 3}])
    cb = lemma_connectivity_bound(full, (0, 1, 2, 3), 2, 1)
    assert cb.bound == 1 and cb.failed is None


def test_connectivity_bound_wide_sigma():
    # comb(24, 12) candidate pseudofaces per vertex: joinability is a count
    # of sigma's vertices adjacent to v once the flag hypothesis holds
    cx = random_complex(1, 24, 1.0, max_dim=2)
    assert lemma_connectivity_bound(cx, range(24), 2, 12).bound == 0


def test_connectivity_bound_hollow_triangle():
    cb = lemma_connectivity_bound(HOLLOW, (0, 1, 2), 1, 1)
    assert cb.bound == 0
    rep = homology(HOLLOW)
    assert rep.betti[0] == 1  # 0-connected indeed


def test_connectivity_bound_isolated_vertex():
    cx = SimplicialComplex.from_maximal([{0, 1}, {1, 2}, {0, 2}, {9}])
    cb = lemma_connectivity_bound(cx, (0, 1, 2), 1, 1)
    assert cb.bound is None and "9" in cb.failed


def test_connectivity_bound_validates_args():
    with pytest.raises(ValidationError):
        lemma_connectivity_bound(HOLLOW, (0,), 1, 0)
    with pytest.raises(ValidationError):
        lemma_connectivity_bound(HOLLOW, (0,), -1, 1)


def test_random_complex_determinism_and_extremes():
    assert random_complex(42, 9, 0.4, ground=3) == random_complex(42, 9, 0.4, ground=3)
    assert random_complex(1, 5, 1.0).maximal_faces == (tuple(range(5)),)
    assert all(len(f) == 1 for f in random_complex(1, 5, 0.0).maximal_faces)
    with pytest.raises(ValidationError):
        random_complex(1, 5, 1.5)


def test_random_complex_rejects_negative_vertex_count():
    with pytest.raises(ValidationError, match="vertex count must be at least 0, got -2"):
        random_complex(1, -2, 0.5)
    with pytest.raises(ValidationError, match="ground size out of range"):
        random_complex(1, 2, 0.5, ground=3)


def test_random_complex_cap(monkeypatch):
    # the 24-clique has 16.7 M faces; the cap stops the triangle layer
    monkeypatch.setattr(simplicial, "HOMOLOGY_CELL_CAP", 1000)
    with pytest.raises(CapExceeded, match=r"growing faces of size 3 \(sizes 1\.\.2 held 24, 276 faces\)"):
        random_complex(1, 24, 1.0)
    assert random_complex(1, 24, 1.0, max_dim=1).f_vector() == (24, 276)


def test_random_complex_ground_planted():
    for seed in range(5):
        cx = random_complex(seed, 10, 0.2, ground=4)
        assert cx.is_face({0, 1, 2, 3})


def test_random_complex_drop_removes_material():
    dense = random_complex(7, 10, 0.8, ground=3, drop=0.0)
    holey = random_complex(7, 10, 0.8, ground=3, drop=0.5)
    n_dense = len(dense.faces_of_size(3))
    n_holey = len(holey.faces_of_size(3))
    assert n_holey < n_dense
    assert holey.is_face({0, 1, 2})  # ground immune


def test_random_complex_max_dim_cap():
    cx = random_complex(3, 6, 1.0, max_dim=2)
    assert cx.dimension == 2


def test_random_complex_layers_are_closed():
    # the layers are built with no closure pass, so the complex must
    # already be the one its own faces generate
    for seed in range(60):
        rng = random.Random(seed)
        n = rng.randint(0, 11)
        max_dim = rng.choice((None, 0, 1, 2, 3))
        drop = rng.choice((0.0, 0.15, 0.5, 1.0))
        cx = random_complex(seed, n, rng.random(), ground=rng.randint(0, n), drop=drop, max_dim=max_dim)
        faces = [f for level in cx.faces for f in level]
        assert cx == SimplicialComplex.from_maximal(faces, vertices=cx.vertices), seed
        assert max_dim is None or cx.dimension <= max_dim


def random_complex_by_scan(seed, n_vertices, density, ground=0, drop=0.0, max_dim=None):
    """Test oracle for ``random_complex``: each clique grows by every higher
    vertex adjacent to all of it that closes no dropped triangle, the
    definition the bitmask growth must reproduce draw for draw."""
    rng = random.Random(seed)
    verts = list(range(n_vertices))
    adj = {
        (i, j)
        for i, j in itertools.combinations(verts, 2)
        if j < ground or rng.random() < density
    }
    cap = n_vertices if max_dim is None else max_dim + 1
    layers = [tuple((v,) for v in verts)]
    dropped = set()
    while layers[-1] and len(layers) < cap:
        layer = tuple(
            c + (v,)
            for c in layers[-1]
            for v in range(c[-1] + 1, n_vertices)
            if all((u, v) in adj for u in c)
            and not any((u, w, v) in dropped for u, w in itertools.combinations(c, 2))
        )
        if len(layers) == 2 and drop > 0:
            dropped = {t for t in layer if t[-1] >= ground and rng.random() < drop}
            layer = tuple(t for t in layer if t not in dropped)
        layers.append(layer)
    return SimplicialComplex(tuple(layer for layer in layers if layer))


def test_random_complex_matches_scan_on_criterion_06_mix():
    # the stratified mix of acceptance criterion 06 that the complexes
    # benchmark draws: 4 complexes per (vertices, density, ground, drop)
    for mix_seed in (0, 1):
        rng = random.Random(mix_seed)
        for _ in range(4):
            for args in itertools.product(range(6, 13), (0.35, 0.5, 0.65), (3, 4, 5), (0.0, 0.15)):
                seed, (n, density, ground, drop) = rng.randrange(2**31), args
                assert random_complex(seed, n, density, ground=ground, drop=drop) == (
                    random_complex_by_scan(seed, n, density, ground=ground, drop=drop)
                ), (seed, args)


def test_random_complex_matches_scan_on_random_draws():
    for seed in range(1200):
        rng = random.Random(seed)
        n = rng.randint(0, 14)
        kwargs = dict(
            ground=rng.randint(0, n),
            drop=rng.choice((0.0, 0.15, 0.5, 1.0)),
            max_dim=rng.choice((None, -1, 0, 1, 2, 3)),
        )
        density = rng.choice((0.0, 1.0, rng.random()))
        assert random_complex(seed, n, density, **kwargs) == (
            random_complex_by_scan(seed, n, density, **kwargs)
        ), (seed, n, density, kwargs)
    for args in ((1, 24, 1.0, 0, 0.0, 2), (2, 16, 0.9, 3, 0.3, 3), (3, 30, 0.5, 5, 0.2, 3)):
        assert random_complex(*args) == random_complex_by_scan(*args), args
