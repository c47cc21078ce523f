import itertools
import json
import os
import random
import subprocess
import sys

import pytest

import gogtool as gt
from gogtool import simplicial
from gogtool.errors import CapExceeded, ValidationError
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
)

from conftest import DATA

HOLLOW = SimplicialComplex.from_maximal([{0, 1}, {1, 2}, {0, 2}])
SPHERE = SimplicialComplex.from_maximal([{0, 1, 2}, {0, 1, 3}, {0, 2, 3}, {1, 2, 3}])
POINTS = SimplicialComplex.from_maximal([{0}, {1}])
RP2 = SimplicialComplex.from_maximal(
    [
        {1, 2, 3}, {1, 3, 4}, {1, 2, 6}, {1, 4, 5}, {1, 5, 6},
        {2, 3, 5}, {2, 4, 5}, {2, 4, 6}, {3, 4, 6}, {3, 5, 6},
    ]
)


def test_from_maximal_normalises():
    cx = SimplicialComplex.from_maximal([{0, 1}, {1}, {0, 1}], vertices=[0, 1, 2])
    assert cx.maximal_faces == (frozenset({2}), frozenset({0, 1}))
    assert cx.vertices == (0, 1, 2)
    assert cx.is_face({0}) and cx.is_face({0, 1}) and not cx.is_face({0, 2})


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


def test_homology_caveat_attached():
    assert "necessary condition" in homology(HOLLOW).caveat


def test_homology_face_cap(monkeypatch):
    monkeypatch.setattr(simplicial, "HOMOLOGY_FACE_CAP", 3)
    with pytest.raises(CapExceeded):
        homology(SPHERE)


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


def test_boundary_matrix_squares_to_zero():
    rows1, n1 = boundary_matrix(SPHERE, 1)
    rows2, n2 = boundary_matrix(SPHERE, 2)
    prod = [
        [sum(rows1[i][t] * rows2[t][j] for t in range(len(rows2))) for j in range(n2)]
        for i in range(len(rows1))
    ]
    assert all(v == 0 for row in prod for v in row)


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


def _pseudosimplices_up_to(cx: SimplicialComplex, m: int, max_size: int) -> list[tuple]:
    out = []
    for size in range(1, max_size + 1):
        for c in itertools.combinations(cx.vertices, size):
            if is_m_pseudosimplex(cx, c, m):
                out.append(c)
    return out


def exhaustive_flag_check(cx: SimplicialComplex, sigma, m: int) -> FlagCheck:
    """Definition-level oracle for ``is_m_flag_wrt``.

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


def _relabelled(cx: SimplicialComplex) -> SimplicialComplex:
    # "v10" sorts before "v2", so str order differs from int order
    return SimplicialComplex.from_maximal(
        [{f"v{v}" for v in face} for face in cx.maximal_faces]
    )


def _flag_cases():
    """Seeded (complex, sigma, m): the criterion-06 mix, denser complexes,
    and heavier triangle drops, each also with str labels."""
    for seed in range(60):
        n = 5 + seed % 8
        density = (0.35, 0.5, 0.65, 0.8)[seed % 4]
        ground = 2 + seed % 3
        drop = (0.0, 0.15, 0.4)[seed % 3]
        cx = random_complex(seed, n, density, ground=ground, drop=drop)
        rng = random.Random(seed)
        sigmas = [tuple(range(ground)), tuple(sorted(rng.sample(range(n), 2)))]
        for m in range(5):
            for sigma in sigmas:
                if is_m_pseudosimplex(cx, sigma, m):
                    yield cx, sigma, m
                    yield _relabelled(cx), tuple(f"v{v}" for v in sigma), m


def test_flag_check_matches_exhaustive_oracle():
    violations = 0
    for cx, sigma, m in _flag_cases():
        fast = is_m_flag_wrt(cx, sigma, m)
        assert fast.holds == exhaustive_flag_check(cx, sigma, m).holds, (cx, sigma, m)
        if fast.holds:
            continue
        violations += 1
        rho, tau = fast.counterexample
        assert is_m_pseudosimplex(cx, rho, m)
        assert tau and set(tau) <= set(sigma)
        assert all(cx.is_face({a, b}) for a in rho for b in tau)
        assert not m_joinable(cx, rho, tau, m)
    assert violations >= 50


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
    assert random_complex(1, 5, 1.0).maximal_faces == (frozenset(range(5)),)
    assert all(len(f) == 1 for f in random_complex(1, 5, 0.0).maximal_faces)
    with pytest.raises(ValidationError):
        random_complex(1, 5, 1.5)


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
