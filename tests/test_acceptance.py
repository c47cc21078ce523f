"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line and holding its stated time budget.

Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import itertools
import random
import time
from contextlib import contextmanager

import pytest

import gogtool as gt
from gogtool.model import HalfEdge
from gogtool.simplicial import homology, lemma_connectivity_bound, random_complex
from gogtool.stein_farley import (
    descending_link,
    link_difference,
    oracle_descending_link,
    sf_vertices_at_height,
)

from conftest import DATA, System, make_system, oracle_caret_census


@contextmanager
def criterion(num: int, limit: float, detail: str):
    start = time.time()
    try:
        yield
    except Exception:
        print(f"\n[criterion {num:02d}] FAIL ({time.time() - start:.2f}s) - {detail}")
        raise
    elapsed = time.time() - start
    line = f"\n[criterion {num:02d}] PASS ({elapsed:.2f}s < {limit:g}s) - {detail}"
    assert elapsed < limit, f"criterion {num} exceeded its {limit}s budget ({elapsed:.2f}s)"
    print(line)


def bundled_systems() -> dict[str, System]:
    return {
        path.stem: make_system(gt.parse_gog(path.read_text()))
        for path in sorted(DATA.glob("*.gog"))
    }


def test_criterion_01_admissibility():
    with criterion(1, 1.0, "default gates admissible on all bundled examples; "
                   "single-gate loop(3,3) inadmissible with replay-valid witness"):
        names = []
        for path in sorted(DATA.glob("*.gog")):
            g = gt.parse_gog(path.read_text())
            gs = gt.default_gates(g)
            cert = gt.is_admissible(g, gs)
            assert cert.admissible, path.stem
            names.append(path.stem)
        assert len(names) == 6

        loop = gt.example_family("loop(3,3)")
        for keep in ("iota", "tau"):
            gs1 = gt.GateSystem(loop, (HalfEdge("e", keep),))
            cert = gt.is_admissible(loop, gs1)
            assert not cert.admissible
            assert cert.witness_cycle
            assert gt.replay_witness(loop, gs1, cert.witness_cycle)


def test_criterion_02_caret_tables():
    with criterion(2, 1.0, "exact caret tables, oracle recomputation, and the "
                   "loop>=3 / non-loop>=4 terminal-leaf bounds on augmented examples"):
        expected = {
            "loop(3,3)": (((3, 2), (2, 3)), (1, 1)),
            "loop(6,9)": (((9, 8), (5, 6)), (1, 1)),
            "z_line": (((1, 0), (0, 1)), (1, 1)),
            "bs(2,3)": (((3, 2), (1, 2)), (1, 1)),
        }
        for family, (m, i) in expected.items():
            g = gt.example_family(family)
            gs = gt.default_gates(g)
            table = gt.caret_table(g, gs)
            assert table.M == m and table.I == i, family
            for j, nu in enumerate(gs.gates):
                terms, inter = oracle_caret_census(g, gs, nu)
                assert inter == table.I[j]
                assert [terms.get(h, 0) for h in gs.gates] == list(table.column(j))
        assert expected["loop(6,9)"][0][0] == (9, 8)  # augmented bs(2,3)
        assert expected["z_line"][0][0][0] == 1  # M_11 = 1
        assert expected["bs(2,3)"][0][1][1] == 2  # M_22 = 2

        for path in sorted(DATA.glob("*.gog")):
            g = gt.augment(gt.parse_gog(path.read_text()))
            gs = gt.default_gates(g)
            table = gt.caret_table(g, gs)
            for j, nu in enumerate(gs.gates):
                need = 3 if g.edge(nu.edge).is_loop else 4
                assert table.M[j][j] >= need, f"{path.stem}:{nu}"


def test_criterion_03_count_formula():
    with criterion(3, 60.0, "predicted counts equal actual counts on every "
                   "enumerated tree (loop(3,3) depth 4, augmented bs(2,3) depth 3)"):
        total = 0
        for family, depth in (("loop(3,3)", 4), ("loop(6,9)", 3)):
            sys = make_system(gt.example_family(family))
            for t in gt.enumerate_admissible(sys.g, sys.gs, sys.t0, depth):
                n = gt.history(t, sys.t0)
                assert gt.predict_counts(n, sys.table, sys.base) == t.counts()
                total += 1
        assert total > 200


def test_criterion_04_order_invariance():
    with criterion(4, 60.0, "100 seeded expansion sequences per example: all valid "
                   "reorderings rebuild the identical patch with the same history"):
        examples = [
            make_system(gt.example_family("loop(3,3)")),
            make_system(gt.augment(gt.example_family("bs(2,3)"))),
            make_system(gt.example_family("amalgam(3,3)")),
        ]
        for sys in examples:
            rng = random.Random(1000 + sys.gs.k)
            for trial in range(100):
                seq = []
                t = sys.t0
                for _ in range(rng.randint(1, 4)):
                    leaves = t.typed_leaves()
                    addr, _ = leaves[rng.randrange(len(leaves))]
                    t = gt.expand_leaf(t, addr)
                    seq.append(addr)
                final = t
                hist = gt.history(final, sys.t0)
                census = [0] * sys.gs.k
                for addr in seq:
                    census[sys.t0.system.gate_type[sys.t0.system.entry_of(addr)]] += 1
                assert hist == gt.History(tuple(census))
                valid = 0
                for perm in set(itertools.permutations(seq)):
                    cur = sys.t0
                    ok = True
                    for addr in perm:
                        if not (addr in cur.nodes and cur.is_graph_leaf(addr)):
                            ok = False
                            break
                        cur = gt.expand_leaf(cur, addr)
                    if ok:
                        valid += 1
                        assert cur == final
                        assert gt.history(cur, sys.t0) == hist
                assert valid >= 1


def test_criterion_05_unions_intersections_lattices():
    with criterion(5, 60.0, "closure of unions/intersections over all enumerated "
                   "pairs; elementary intervals are Boolean of size 2^c"):
        sys = make_system(gt.example_family("loop(3,3)"))
        trees = gt.enumerate_admissible(sys.g, sys.gs, sys.t0, 3)
        for t1, t2 in itertools.combinations(trees, 2):
            assert gt.tree_union(t1, t2).is_admissible()
            assert gt.tree_intersection(t1, t2).is_admissible()

        leaves = [a for a, _ in sys.t0.typed_leaves()]
        three_deep = {p.nodes: p for p in trees}
        for c in (1, 2, 3):
            for picks in itertools.combinations(leaves, c):
                top = sys.t0
                for addr in picks:
                    top = gt.expand_leaf(top, addr)
                lat = gt.interval_lattice(sys.t0, top)
                assert lat.rank == c and lat.size == 2 ** c
                between = {
                    nodes for nodes in three_deep if nodes <= top.nodes
                }
                assert {el.nodes for el in lat.elements} == between


def test_criterion_06_connectivity_checker_soundness():
    with criterion(6, 300.0, ">=500 seeded complexes: whenever the checker "
                   "certifies bound b, homology vanishes accordingly (0 violations)"):
        verified = 0
        for seed in range(500):
            n = 6 + seed % 7
            density = (0.35, 0.5, 0.65)[seed % 3]
            s = 3 + seed % 3
            drop = 0.0 if seed % 2 == 0 else 0.15
            cx = random_complex(seed, n, density, ground=s, drop=drop)
            sigma = tuple(range(s))
            rep = None
            for m, k in ((1, 1), (2, 1), (2, 2), (3, 1)):
                cb = lemma_connectivity_bound(cx, sigma, m, k)
                if cb.bound is None or cb.bound < 0:
                    continue
                verified += 1
                if rep is None:
                    rep = homology(cx, max_dim=3)
                assert rep.betti[0] == 1, f"seed {seed}: bound {cb.bound} but disconnected"
                for i in range(1, cb.bound + 1):
                    assert rep.betti[i] == 0 and rep.torsion[i] == (), (
                        f"seed {seed}: bound {cb.bound} but H_{i} nonzero"
                    )
        assert verified >= 100, f"only {verified} hypothesis-verified cases"


def test_criterion_07_homology_engine():
    with criterion(7, 1.0, "exact Betti numbers for the hollow triangle, the "
                   "2-sphere boundary, and two disjoint points"):
        hollow = gt.SimplicialComplex.from_maximal([{0, 1}, {1, 2}, {0, 2}])
        assert homology(hollow).betti == (1, 1)
        sphere = gt.SimplicialComplex.from_maximal(
            [{0, 1, 2}, {0, 1, 3}, {0, 2, 3}, {1, 2, 3}]
        )
        assert homology(sphere).betti == (1, 0, 1)
        points = gt.SimplicialComplex.from_maximal([{0}, {1}])
        assert homology(points).betti == (2,)


def test_criterion_08_descending_link_oracle_equivalence():
    with criterion(8, 600.0, "fast-path links equal tree-level oracle links for "
                   "all count classes of height <=14 on loop(3,3) and <=10 on "
                   "augmented bs(2,3); the (2,(5,5)) link is exactly 200 vertices, 0 edges"):
        loop = make_system(gt.example_family("loop(3,3)"))
        compared = 0
        for h in range(0, 15):
            for x in sf_vertices_at_height(h, loop.table, loop.base):
                fast = descending_link(x, loop.table, loop.base)
                slow = oracle_descending_link(x, loop.g, loop.gs, loop.t0)
                assert link_difference(fast, slow) is None, (h, x)
                compared += 1
                if x == gt.CountVector(2, (5, 5)):
                    assert fast.f_vector == (200,)
                    assert not fast.higher_faces
        assert compared == 3  # heights 6, 10, 14

        aug = make_system(gt.augment(gt.example_family("bs(2,3)")))
        low = [
            x
            for h in range(0, 11)
            for x in sf_vertices_at_height(h, aug.table, aug.base)
        ]
        # the augmented base tree already has 15 leaves, so no count class
        # exists at height <= 10 and the criterion holds vacuously there
        assert low == []
        for x in low:
            fast = descending_link(x, aug.table, aug.base)
            slow = oracle_descending_link(x, aug.g, aug.gs, aug.t0)
            assert link_difference(fast, slow) is None


def test_criterion_09_dickson_alpha():
    with criterion(9, 10.0, "alpha({S_1}, i) = 1 with basis {(1,0),(0,1)} against "
                   "a brute-force 20x20 scan; toy predicate basis has 4 elements"):
        sys = make_system(gt.example_family("loop(3,3)"))
        assert gt.alpha((0,), 0, sys.table, sys.base) == 1
        assert gt.alpha((0,), 1, sys.table, sys.base) == 1
        pred = gt.elementary_expansion_predicate((0,), sys.table, sys.base)
        basis = gt.dickson_minimal(pred, 2, 20)
        assert basis.minimal == ((0, 1), (1, 0))

        box = [(i, j) for i in range(21) for j in range(21)]
        truth = {p for p in box if pred(p)}
        brute_minimal = {
            p
            for p in truth
            if not any(q != p and q[0] <= p[0] and q[1] <= p[1] for q in truth)
        }
        assert brute_minimal == set(basis.minimal)

        toy = gt.dickson_minimal(lambda n: n[0] + n[1] >= 3, 2, 20)
        assert toy.minimal == ((0, 3), (1, 2), (2, 1), (3, 0))


def test_criterion_10_thresholds():
    with criterion(10, 60.0, "beta=5, C(0)=16, C(1)=32, r(m)=2*(alpha+C(m)); report "
                   "states that threshold heights exceed construction caps"):
        sys = make_system(gt.example_family("loop(3,3)"))
        th0 = gt.thresholds(0, sys.table, sys.base)
        th1 = gt.thresholds(1, sys.table, sys.base)
        assert th0.beta == 5 and th1.beta == 5
        assert th0.C == 16 and th1.C == 32
        assert th0.alpha_complete and th1.alpha_complete
        assert th0.r == 2 * (th0.alpha_value + 16)
        assert th1.r == 2 * (th1.alpha_value + 32)
        notes = " ".join(th0.notes)
        assert "beyond construction caps" in notes
        assert "substitutes for direct verification" in notes


def test_criterion_11_negative_controls():
    with criterion(11, 1.0, "viral check fails on z_line (M_11=1) and bs(2,3) "
                   "(M_22=2), passes on augmentations; augment triples indices and degrees"):
        z = make_system(gt.example_family("z_line"))
        rep = gt.check_viral(z.g, z.gs, z.t0)
        assert not rep.passed and "M_11 = 1" in rep.reasons

        bs = make_system(gt.example_family("bs(2,3)"))
        rep = gt.check_viral(bs.g, bs.gs, bs.t0)
        assert not rep.passed and "M_22 = 2" in rep.reasons

        for base_family in ("z_line", "bs(2,3)"):
            g = gt.augment(gt.example_family(base_family))
            sys = make_system(g)
            rep = gt.check_viral(sys.g, sys.gs, sys.t0)
            assert rep.passed, base_family

        for family in ("bs(2,3)", "loop(3,3)", "amalgam(3,3)"):
            g = gt.example_family(family)
            ga = gt.augment(g)
            for e in g.edges:
                ea = ga.edge(e.name)
                assert (ea.index_iota, ea.index_tau) == (3 * e.index_iota, 3 * e.index_tau)
            d0 = gt.tree_degrees(g)
            assert gt.tree_degrees(ga) == {v: 3 * d for v, d in d0.items()}
