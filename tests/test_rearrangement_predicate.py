"""The rearrangement predicate against the residual-count oracle, its
memo on count classes, and the Dickson search it feeds."""

import itertools
import random

import pytest

import gogtool as gt
from gogtool import count_algebra
from gogtool.count_algebra import dickson_minimal

from conftest import DATA, System, elementary_expansion_ok, make_system, random_gog

# the viral seeds of test_allowed_multisets_match_the_predicate
VIRAL_SEEDS = (2, 4, 5, 6, 8, 10, 11, 13, 15, 18, 21, 22)


def test_predicate_matches_residual_oracle():
    # the six bundled systems and the seeded viral ones; every collection of
    # at most 3 carets, every history in [0, 4]^k
    systems = [make_system(gt.parse_gog(p.read_text())) for p in sorted(DATA.glob("*.gog"))]
    systems += [
        make_system(gt.augment(random_gog(random.Random(seed), min_degree_two=True)))
        for seed in VIRAL_SEEDS
    ]
    cases = 0
    for sys in systems:
        k = len(sys.table.I)
        for size in range(1, 4):
            for rho in itertools.combinations_with_replacement(range(k), size):
                pred = gt.elementary_expansion_predicate(rho, sys.table, sys.base)
                mult = tuple(rho.count(j) for j in range(k))
                for n in itertools.product(range(5), repeat=k):
                    c = gt.predict_counts(gt.History(n), sys.table, sys.base)
                    assert pred(n) == elementary_expansion_ok(c, mult, sys.table, sys.base), (rho, n)
                    cases += 1
    assert len(systems) == 18 and cases == 14170


def test_dickson_search_reads_each_count_class_once(
    monkeypatch, loop33: System, amalgam33: System, bs23_aug: System
):
    calls = []
    search = count_algebra.realizable

    def counting(c, *args, **kwargs):
        calls.append(c)
        return search(c, *args, **kwargs)

    monkeypatch.setattr(count_algebra, "realizable", counting)
    revisits = 0
    for sys in (loop33, amalgam33, bs23_aug):
        k = len(sys.table.I)
        for rho in itertools.chain.from_iterable(
            itertools.combinations_with_replacement(range(k), size) for size in (1, 2, 3)
        ):
            pred = gt.elementary_expansion_predicate(rho, sys.table, sys.base)
            visits = []

            def visit(n):
                visits.append(gt.predict_counts(gt.History(n), sys.table, sys.base))
                return pred(n)

            calls.clear()
            dickson_minimal(visit, k)
            mult = tuple(rho.count(j) for j in range(k))
            # a class whose leaves cannot hold the carets needs no search
            fitting = {
                c for c in visits
                if all(sum(m * r for m, r in zip(row, mult)) <= l for row, l in zip(sys.table.M, c.leaves))
            }
            assert sorted(calls) == sorted(fitting), rho
            revisits += len(visits) - len(set(visits))
    # the searches do come back to classes they have seen
    assert revisits > 0


def test_thresholds_search_each_count_class_once(
    monkeypatch, loop33: System, amalgam33: System, bs23_aug: System
):
    # the predicates of one thresholds call, one per rho, share one memo
    calls = []
    search = count_algebra.realizable

    def counting(c, *args, **kwargs):
        calls.append(c)
        return search(c, *args, **kwargs)

    monkeypatch.setattr(count_algebra, "realizable", counting)
    for sys in (loop33, amalgam33, bs23_aug):
        calls.clear()
        gt.thresholds(1, sys.table, sys.base)
        assert calls and len(calls) == len(set(calls))


@pytest.mark.xfail(
    strict=True,
    reason="a box alone cannot prove a basis complete; waits for exact Dickson bases from the count map",
)
def test_dickson_box_cutting_a_later_minimal_point_is_incomplete():
    # minimal points (1, 1) and (5, 0): box 2 stabilises at layer 3, whose
    # out-of-box points (0, 3) and (3, 0) are false, and never sees (5, 0)
    basis = dickson_minimal(lambda n: n[0] >= 5 or min(n) >= 1, 2, 2)
    assert basis.minimal == ((1, 1), (5, 0)) or not basis.complete
