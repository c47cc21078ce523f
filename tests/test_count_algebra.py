import itertools
import random
from dataclasses import dataclass
from types import SimpleNamespace

import pytest

import gogtool as gt
from gogtool.count_algebra import (
    allowed_multisets,
    dickson_minimal,
    expansion_matrix,
    order_feasible,
    weighted_vectors,
)
from gogtool.errors import DicksonBoxExhausted, ValidationError
from gogtool.stein_farley import is_viral, sf_vertices_at_height

from conftest import System, elementary_expansion_ok, make_system, random_gog


def test_predict_empty_history(loop33: System):
    assert gt.predict_counts(gt.History((0, 0)), loop33.table, loop33.base) == loop33.base


def test_predict_examples(loop33: System):
    assert gt.predict_counts(gt.History((1, 0)), loop33.table, loop33.base) == gt.CountVector(2, (5, 5))
    assert gt.predict_counts(gt.History((1, 1)), loop33.table, loop33.base) == gt.CountVector(3, (7, 7))


def test_predict_dimension_mismatch(loop33: System):
    with pytest.raises(ValidationError):
        gt.predict_counts(gt.History((1,)), loop33.table, loop33.base)


def test_predict_matches_counts_on_enumeration(loop33: System, triple: System):
    for sys in (loop33, triple):
        for t in gt.enumerate_admissible(sys.g, sys.gs, sys.t0, 2):
            n = gt.history(t, sys.t0)
            assert gt.predict_counts(n, sys.table, sys.base) == t.counts()


def test_count_vectors_order_hash_and_repr_as_a_dataclass(loop33: System, triple: System):
    # the semantics of the frozen, ordered dataclass over (interior, leaves)
    @dataclass(frozen=True, order=True)
    class CountVector:
        interior: int
        leaves: tuple[int, ...]

    CountVector.__qualname__ = "CountVector"  # its generated repr names this
    vectors = [t.counts() for s in (loop33, triple) for t in gt.enumerate_admissible(s.g, s.gs, s.t0, 2)]
    vectors += [gt.CountVector(i, leaves) for i in range(3) for leaves in ((), (0,), (1, 0), (0, 1, 2))]
    random.Random(1).shuffle(vectors)
    refs = [CountVector(c.interior, c.leaves) for c in vectors]
    assert [CountVector(c.interior, c.leaves) for c in sorted(vectors)] == sorted(refs)
    for c, ref in zip(vectors, refs):
        assert hash(c) == hash(ref) == hash((c.interior, c.leaves))
        assert repr(c) == repr(ref)
        assert c.height == sum(ref.leaves)


def test_realizable_examples(loop33: System):
    assert gt.realizable(loop33.base, loop33.table, loop33.base, True) == {gt.History((0, 0))}
    assert gt.realizable(gt.CountVector(2, (5, 5)), loop33.table, loop33.base, True) == {
        gt.History((1, 0)),
        gt.History((0, 1)),
    }
    assert gt.realizable(gt.CountVector(0, (3, 3)), loop33.table, loop33.base, True) == frozenset()


def test_realizable_contains_generating_history(loop33: System, triple: System):
    rng = random.Random(11)
    for sys in (loop33, triple):
        k = sys.gs.k
        for _ in range(25):
            n = gt.History(tuple(rng.randint(0, 3) for _ in range(k)))
            c = gt.predict_counts(n, sys.table, sys.base)
            assert n in gt.realizable(c, sys.table, sys.base, True)


def test_realizable_nonviral_orders(z_line: System):
    # the line only ever has one leaf of each type; both single expansions work
    c = gt.CountVector(2, (1, 1))
    assert gt.realizable(c, z_line.table, z_line.base, False) == {
        gt.History((1, 0)),
        gt.History((0, 1)),
    }


def test_order_feasible_blocks_missing_leaf_types(triple: System):
    # the base tree of the triple graph has no type-3 leaves, so a lone
    # type-3 expansion cannot be ordered, but type 1 first unlocks it
    assert not order_feasible((0, 0, 1), triple.table, triple.base)
    assert order_feasible((1, 0, 1), triple.table, triple.base)


def test_order_feasible_deeper_than_recursion_limit(z_line: System):
    # 1,500 expansions in a row, one search state each
    assert order_feasible((1500, 0), z_line.table, z_line.base)


def test_realizable_agrees_with_enumeration(triple: System):
    # oracle: counts seen in an explicit enumeration are exactly the
    # realizable ones (and vice versa) within the expansion bound
    trees = gt.enumerate_admissible(triple.g, triple.gs, triple.t0, 2)
    seen = {}
    for t in trees:
        seen.setdefault(t.counts(), set()).add(gt.history(t, triple.t0))
    for c, hists in seen.items():
        sols = gt.realizable(c, triple.table, triple.base, False)
        assert hists <= sols
        for n in sols:
            if n.total <= 2:
                assert n in hists


def test_weighted_vectors():
    assert set(weighted_vectors(3, (1, 1))) == {(0, 3), (1, 2), (2, 1), (3, 0)}
    assert set(weighted_vectors(4, (2, 3))) == {(2, 0)}
    assert list(weighted_vectors(0, (1,))) == [(0,)]
    with pytest.raises(ValidationError):
        list(weighted_vectors(1, (0,)))


def test_weighted_vectors_in_lexicographic_order():
    for weights in ((1, 1), (2, 3), (1, 2, 3), (3, 1, 2, 1)):
        for total in range(8):
            expected = [
                n
                for n in itertools.product(range(total + 1), repeat=len(weights))
                if sum(a * w for a, w in zip(n, weights)) == total
            ]
            assert list(weighted_vectors(total, weights)) == expected


def test_dickson_walks_layers_in_lexicographic_order():
    asked = []
    dickson_minimal(lambda p: asked.append(p) or sum(p) >= 2, 2, 2)
    assert asked[:6] == [(0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0)]


def test_vector_enumeration_needs_no_recursion():
    assert list(weighted_vectors(0, (1,) * 1500)) == [(0,) * 1500]
    basis = dickson_minimal(lambda p: True, 1500, 2)
    assert basis.minimal == ((0,) * 1500,)
    assert basis.complete


def test_dickson_toy_basis():
    basis = dickson_minimal(lambda n: n[0] + n[1] >= 3, 2, 10)
    assert basis.minimal == ((0, 3), (1, 2), (2, 1), (3, 0))
    assert basis.complete


def test_dickson_false_predicate():
    basis = dickson_minimal(lambda n: False, 2, 5)
    assert basis.minimal == ()
    assert not basis.complete


def test_dickson_true_at_origin():
    basis = dickson_minimal(lambda n: True, 3, 5)
    assert basis.minimal == ((0, 0, 0),)
    assert basis.complete


def test_dickson_antichain_and_domination():
    rng = random.Random(3)
    for _ in range(10):
        cuts = [(rng.randint(0, 4), rng.randint(0, 4)) for _ in range(3)]
        pred = lambda n: any(n[0] >= a and n[1] >= b for a, b in cuts)
        basis = dickson_minimal(pred, 2, 12)
        assert basis.complete
        mins = basis.minimal
        for p, q in itertools.combinations(mins, 2):
            assert not all(p[i] <= q[i] for i in range(2))
            assert not all(q[i] <= p[i] for i in range(2))
        for _ in range(30):
            pt = (rng.randint(0, 12), rng.randint(0, 12))
            assert pred(pt) == basis.dominates(pt)


def test_dickson_rejects_non_monotone():
    with pytest.raises(ValidationError, match="not monotone"):
        dickson_minimal(lambda n: n == (1, 1), 2, 5)


def test_rearrangement_predicate_reduces_to_total(loop33: System):
    pred = gt.elementary_expansion_predicate((0,), loop33.table, loop33.base)
    for n in itertools.product(range(4), repeat=2):
        assert pred(n) == (sum(n) >= 1)
    basis = dickson_minimal(pred, 2, 20)
    assert basis.minimal == ((0, 1), (1, 0))


def test_alpha_examples(loop33: System):
    assert gt.alpha((0,), 0, loop33.table, loop33.base) == 1
    assert gt.alpha((0,), 1, loop33.table, loop33.base) == 1
    assert gt.alpha((0, 0), 0, loop33.table, loop33.base) == 2
    with pytest.raises(ValidationError):
        gt.alpha((), 0, loop33.table, loop33.base)


def test_alpha_box_exhaustion(loop33: System):
    with pytest.raises(DicksonBoxExhausted) as exc:
        gt.alpha((0,), 0, loop33.table, loop33.base, box=0)
    assert exc.value.partial_basis.minimal == ()


def test_dickson_box_cutting_a_layer_is_incomplete(loop33: System):
    # the in-box points of layer 2 of rho = (0, 0) are dominated at box 1,
    # but (0, 2) and (2, 0) beyond the box are true and undominated
    pred = gt.elementary_expansion_predicate((0, 0), loop33.table, loop33.base)
    small = dickson_minimal(pred, 2, 1)
    assert small.minimal == ((1, 1),) and not small.complete
    full = dickson_minimal(pred, 2, 2)
    assert full.minimal == ((0, 2), (1, 1), (2, 0)) and full.complete
    with pytest.raises(DicksonBoxExhausted) as exc:
        gt.alpha((0, 0), 0, loop33.table, loop33.base, box=1)
    assert exc.value.partial_basis.minimal == ((1, 1),) and exc.value.partial_max == 1


def test_threshold_rows_match_alpha(loop33: System, bs23_aug: System):
    # thresholds reads every type's bound off one search per collection
    for system in (loop33, bs23_aug):
        th = gt.thresholds(1, system.table, system.base)
        for rho, vals in th.alpha_table:
            assert vals == tuple(gt.alpha(rho, i, system.table, system.base) for i in range(th.k))


def test_thresholds_loop33(loop33: System):
    th0 = gt.thresholds(0, loop33.table, loop33.base)
    assert th0.beta == 5
    assert th0.C == 16
    assert th0.alpha_complete
    assert th0.r == 2 * (th0.alpha_value + 16)
    th1 = gt.thresholds(1, loop33.table, loop33.base)
    assert th1.C == 32
    assert th1.C >= th0.C


def test_thresholds_notes_present(loop33: System):
    th = gt.thresholds(0, loop33.table, loop33.base)
    joined = " ".join(th.notes)
    assert "beyond construction caps" in joined
    assert "substitutes for direct verification" in joined
    data = th.to_json_dict()
    assert data["beta"] == 5 and data["C"] == 16
    assert not data["r_is_lower_bound_only"]


def test_beta_invariant_under_gate_permutation(loop33: System):
    k = 2
    perm = (1, 0)
    m_perm = tuple(
        tuple(loop33.table.M[perm[i]][perm[j]] for j in range(k)) for i in range(k)
    )
    table2 = SimpleNamespace(M=m_perm, I=tuple(loop33.table.I[j] for j in perm))
    base2 = gt.CountVector(loop33.base.interior, tuple(loop33.base.leaves[j] for j in perm))
    th = gt.thresholds(0, loop33.table, loop33.base)
    th2 = gt.thresholds(0, table2, base2)
    assert th.beta == th2.beta and th.C == th2.C and th.r == th2.r


def test_expansion_matrix(loop33: System):
    assert expansion_matrix(loop33.table) == ((2, 2), (2, 2))


def test_allowed_multisets_match_the_predicate(loop33: System, amalgam33: System, bs23_aug: System):
    # the bundled systems over 30 heights, then the first seeds, in order,
    # whose augmented system is viral with k <= 3 over 40; the comparison
    # chooses no seed
    systems = [(sys, 30) for sys in (loop33, amalgam33, bs23_aug)]
    seeds = []
    for seed in itertools.count():
        sys = make_system(gt.augment(random_gog(random.Random(seed), min_degree_two=True)))
        if len(sys.table.I) <= 3 and is_viral(sys.table, sys.base):
            seeds.append(seed)
            systems.append((sys, 40))
            if len(seeds) == 12:
                break
    assert seeds == [2, 4, 5, 6, 8, 10, 11, 13, 15, 18, 21, 22]
    pairs = 0
    for sys, heights in systems:
        k = len(sys.table.I)
        for h in range(sys.base.height, sys.base.height + heights):
            for x in sf_vertices_at_height(h, sys.table, sys.base):
                allowed = allowed_multisets(x, sys.table, sys.base)
                # every mu up to one size past the largest allowed
                for size in range(1, max(map(sum, allowed), default=0) + 2):
                    for combo in itertools.combinations_with_replacement(range(k), size):
                        mu = tuple(combo.count(j) for j in range(k))
                        ok = elementary_expansion_ok(x, mu, sys.table, sys.base)
                        assert (mu in allowed) == ok, (x, mu)
                        pairs += 1
    assert pairs == 1182
