import hashlib
import itertools
import json
import random
from collections import Counter
from types import SimpleNamespace

import pytest

import gogtool as gt
from gogtool import count_algebra
from gogtool.count_algebra import elementary_expansion_ok
from gogtool.errors import CapExceeded, ValidationError
from gogtool.stein_farley import (
    DescendingLink,
    LinkVertex,
    _link,
    _planted_same_type_face,
    _removable_carets,
    descending_link,
    is_viral,
    link_connectivity_report,
    link_difference,
    link_f_vector,
    oracle_descending_link,
    sf_vertices_at_height,
    sf_vertices_at_height_enumerated,
)

from conftest import System, forced_completion, make_system, random_gog


def xv(interior, leaves):
    return gt.CountVector(interior, leaves)


def test_sf_vertices_examples(loop33: System):
    assert sf_vertices_at_height(6, loop33.table, loop33.base) == (xv(1, (3, 3)),)
    assert sf_vertices_at_height(10, loop33.table, loop33.base) == (xv(2, (5, 5)),)
    assert sf_vertices_at_height(7, loop33.table, loop33.base) == ()
    assert sf_vertices_at_height(14, loop33.table, loop33.base) == (xv(3, (7, 7)),)
    assert sf_vertices_at_height(2, loop33.table, loop33.base) == ()


def test_sf_vertices_need_growing_carets(z_line: System):
    with pytest.raises(ValidationError, match="sf_vertices_at_height_enumerated"):
        sf_vertices_at_height(2, z_line.table, z_line.base)
    found = sf_vertices_at_height_enumerated(2, z_line.g, z_line.gs, z_line.t0, 3)
    assert found == (xv(1, (1, 1)), xv(2, (1, 1)), xv(3, (1, 1)), xv(4, (1, 1)))


def test_descending_link_base_is_empty(loop33: System):
    link = descending_link(xv(1, (3, 3)), loop33.table, loop33.base)
    assert link.f_vector == (0,)
    assert link.vertices == ()


def test_descending_link_200_isolated_vertices(loop33: System):
    link = descending_link(xv(2, (5, 5)), loop33.table, loop33.base)
    assert link.f_vector == (200,)
    assert not link.higher_faces
    per_type = {0: 0, 1: 0}
    for v in link.vertices:
        per_type[v.caret_type] += 1
        sizes = tuple(len(s) for s in v.slots)
        assert sizes == ((3, 2) if v.caret_type == 0 else (2, 3))
    assert per_type == {0: 100, 1: 100}


def test_descending_link_height14(loop33: System):
    link = descending_link(xv(3, (7, 7)), loop33.table, loop33.base)
    assert link.f_vector == (1470, 73500)
    # dimension law: an l-face removes l+1 carets and the residual interior
    # count stays at least the base interior count
    for a, b in link.higher_faces[0][:200]:
        mu = [0, 0]
        mu[link.vertices[a].caret_type] += 1
        mu[link.vertices[b].caret_type] += 1
        res = link.x.interior - sum(
            loop33.table.I[j] * mu[j] for j in range(2)
        )
        assert res >= loop33.base.interior


def test_descending_link_downward_closed(loop33: System):
    link = descending_link(xv(3, (7, 7)), loop33.table, loop33.base)
    verts = set(range(len(link.vertices)))
    for face in link.higher_faces[0][:500]:
        assert set(face) <= verts
    if len(link.higher_faces) > 1:
        edges = set(link.higher_faces[0])
        for face in link.higher_faces[1]:
            for sub in itertools.combinations(face, 2):
                assert sub in edges


def test_descending_link_requires_viral(z_line: System):
    assert not is_viral(z_line.table, z_line.base)
    with pytest.raises(ValidationError, match="viral"):
        descending_link(xv(1, (1, 1)), z_line.table, z_line.base)


def test_descending_link_vertex_cap(loop33: System):
    with pytest.raises(CapExceeded):
        descending_link(xv(3, (7, 7)), loop33.table, loop33.base, max_vertices=100)


def test_oracle_equivalence_small_heights(loop33: System, amalgam33: System):
    nonempty = 0
    for sys, heights in ((loop33, (6, 10)), (amalgam33, (6,))):
        for h in heights:
            for x in sf_vertices_at_height(h, sys.table, sys.base):
                fast = descending_link(x, sys.table, sys.base)
                slow = oracle_descending_link(x, sys.g, sys.gs, sys.t0)
                assert link_difference(fast, slow) is None
                nonempty += bool(fast.vertices)
    assert nonempty == 2  # loop(3,3) h10 (200 vertices), amalgam(3,3) h6 (15)


def test_oracle_equivalence_bs23_aug_base(bs23_aug: System):
    (x,) = sf_vertices_at_height(15, bs23_aug.table, bs23_aug.base)
    fast = descending_link(x, bs23_aug.table, bs23_aug.base)
    slow = oracle_descending_link(x, bs23_aug.g, bs23_aug.gs, bs23_aug.t0)
    assert fast.f_vector == (0,)
    assert link_difference(fast, slow) is None


def test_link_difference_reports_witness(loop33: System):
    link = descending_link(xv(2, (5, 5)), loop33.table, loop33.base)
    smaller = DescendingLink(link.x, link.vertices[:-1], link.higher_faces)
    diff = link_difference(link, smaller)
    assert diff is not None and "only in first" in diff
    other = descending_link(xv(1, (3, 3)), loop33.table, loop33.base)
    assert "count classes" in link_difference(link, other)


def test_link_to_complex_and_json(loop33: System):
    link = descending_link(xv(2, (5, 5)), loop33.table, loop33.base)
    cx = link.to_complex()
    assert len(cx.maximal_faces) == 200
    data = link.to_json_dict()
    assert data["f_vector"] == [200]
    assert len(data["vertices"]) == 200
    assert data["vertices"][0]["type"] in (1, 2)


def test_link_report_below_threshold(loop33: System):
    link = descending_link(xv(2, (5, 5)), loop33.table, loop33.base)
    rep = link_connectivity_report(link, [gt.thresholds(0, loop33.table, loop33.base)])
    assert rep.betti is not None and rep.betti[0] == 200
    assert rep.per_m[0]["r"] == 36
    assert "below" in rep.per_m[0]["status"]
    joined = " ".join(rep.caveats)
    assert "beyond construction caps" in joined
    assert "necessary condition" in joined
    row = rep.csv_row()
    assert row.startswith("10,200,0,")


def test_link_report_empty_link(loop33: System):
    link = descending_link(xv(1, (3, 3)), loop33.table, loop33.base)
    rep = link_connectivity_report(link, [gt.thresholds(0, loop33.table, loop33.base)])
    assert rep.betti is None
    assert "(-1)-connected" in rep.betti_note


def test_link_report_json_schema(loop33: System):
    link = descending_link(xv(2, (5, 5)), loop33.table, loop33.base)
    rep = link_connectivity_report(link, [gt.thresholds(0, loop33.table, loop33.base)])
    data = rep.to_json_dict()
    assert set(data) >= {"x", "height", "f_vector", "betti", "thresholds", "caveats"}
    assert data["thresholds"][0]["beta"] == 5
    assert data["thresholds"][0]["C"] == 16


# -- the link builder against the definition -------------------------------


def brute_faces(mu, M, leaves) -> list[frozenset]:
    """Every set of pairwise slot-disjoint single-caret vertices whose
    caret types make up the multiset mu, straight from the definition."""
    k = len(leaves)
    verts = sorted(
        LinkVertex(j, choice)
        for j in range(k)
        for choice in itertools.product(
            *(itertools.combinations(range(leaves[i]), M[i][j]) for i in range(k))
        )
    )
    found = []

    def grow(start, chosen, left):
        if not any(left):
            found.append(frozenset(chosen))
            return
        for idx in range(start, len(verts)):
            v = verts[idx]
            if left[v.caret_type] and all(
                not set(v.slots[i]) & set(u.slots[i]) for u in chosen for i in range(k)
            ):
                grow(idx + 1, chosen + [v], [n - (t == v.caret_type) for t, n in enumerate(left)])

    grow(0, [], list(mu))
    return found


def kept_by_definition(keep, k: int, top: int) -> list[tuple[int, ...]]:
    """The caret-type multisets of size at most ``top`` whose nonzero
    sub-multisets all satisfy ``keep``."""
    out = []
    for size in range(1, top + 1):
        for combo in itertools.combinations_with_replacement(range(k), size):
            mu = tuple(combo.count(j) for j in range(k))
            subs = itertools.product(*(range(n + 1) for n in mu))
            if all(keep(nu) for nu in subs if any(nu)):
                out.append(mu)
    return out


def check_link(M, leaves, allowed, brute) -> int:
    """Compare ``_link`` on the downward-closed set ``allowed`` with the
    definition; return its face count."""
    link = _link(xv(0, leaves), SimpleNamespace(M=M), allowed)
    assert link.f_vector == link_f_vector(xv(0, leaves), SimpleNamespace(M=M), allowed)
    assert list(link.vertices) == sorted(link.vertices)
    assert len(link.higher_faces) == max(map(sum, allowed), default=1) - 1
    index = {v: i for i, v in enumerate(link.vertices)}
    levels = [[(i,) for i in range(len(link.vertices))], *link.higher_faces]
    for size, faces in enumerate(levels, 1):
        assert all(list(f) == sorted(set(f)) for f in faces)  # strictly increasing
        assert len(set(faces)) == len(faces), (M, leaves, size)  # each face once
        expected = {
            frozenset(index[v] for v in face)
            for mu in allowed
            if sum(mu) == size
            for face in brute(mu)
        }
        assert set(map(frozenset, faces)) == expected, (M, leaves, size)
    return sum(link.f_vector)


def random_table(rng: random.Random):
    """k <= 3 gate types, M entries 0..2 with no zero column, and at most
    six leaves in all."""
    k = rng.randint(1, 3)
    while True:
        M = tuple(tuple(rng.randint(0, 2) for _ in range(k)) for _ in range(k))
        leaves = tuple(rng.randint(1, 6) for _ in range(k))
        if sum(leaves) <= 6 and all(any(row[j] for row in M) for j in range(k)):
            return M, leaves


def test_faces_match_definition(loop33: System, amalgam33: System):
    rng = random.Random(2408)
    cases = [
        (loop33.table.M, (5, 5)),
        (amalgam33.table.M, (9,)),
        (((2, 1), (1, 1)), (5, 4)),
        # type 2 takes no type-1 leaves
        (((1, 0, 1), (1, 2, 0), (0, 1, 1)), (3, 4, 2)),
    ]
    cases += [random_table(rng) for _ in range(30)]
    nonempty = 0
    for M, leaves in cases:
        k = len(leaves)
        memo = {}

        def brute(mu):
            if mu not in memo:
                memo[mu] = brute_faces(mu, M, leaves)
            return memo[mu]

        small = kept_by_definition(lambda mu: True, k, 3)
        # a downward-closed keep: below one of a few seeded multisets
        tops = rng.sample(small, min(len(small), rng.randint(1, 3)))

        def below_tops(mu):
            return any(all(a <= b for a, b in zip(mu, top)) for top in tops)

        # and one that is not, passed as the largest downward-closed set
        # inside it
        scattered = set(rng.sample(small, len(small) * 2 // 3))
        for keep in (lambda mu: sum(mu) <= 3, below_tops, scattered.__contains__):
            allowed = set(kept_by_definition(keep, k, 4))
            nonempty += bool(check_link(M, leaves, allowed, brute))
    assert nonempty >= 60


def maximal_by_definition(link: DescendingLink) -> tuple[tuple[int, ...], ...]:
    """The faces that no vertex extends to a face one size larger,
    smallest first and each size sorted."""
    n = len(link.vertices)
    layers = [[(v,) for v in range(n)], *link.higher_faces]
    above = [set(map(frozenset, layer)) for layer in layers[1:]] + [set()]
    return tuple(
        f
        for size, layer in enumerate(layers)
        for f in sorted(layer)
        if not any(frozenset(f) | {v} in above[size] for v in range(n) if v not in f)
    )


def test_link_maximal_faces_match_complex(loop33: System, amalgam33: System, monkeypatch):
    # every link test_faces_match_definition builds, recorded as it runs
    built, build = [], _link

    def recording(*args):
        built.append(build(*args))
        return built[-1]

    monkeypatch.setitem(globals(), "_link", recording)
    test_faces_match_definition(loop33, amalgam33)
    monkeypatch.undo()
    assert len(built) == 34 * 3
    for sys, h in ((loop33, 10), (loop33, 14), (amalgam33, 9), (amalgam33, 12)):
        (x,) = sf_vertices_at_height(h, sys.table, sys.base)
        built.append(descending_link(x, sys.table, sys.base))
    mixed = brute = 0
    for link in built:
        assert link.maximal_faces == link.to_complex().maximal_faces, link.x
        mixed += len({len(f) for f in link.maximal_faces}) > 1
        if sum(link.f_vector) <= 5000:
            assert link.maximal_faces == maximal_by_definition(link), link.x
            brute += 1
    assert mixed  # some link has maximal faces of more than one size
    assert brute == len(built) - 2  # all but loop h14 and amalgam h12
    assert len(built[-3].maximal_faces) == 73500  # loop h14: every edge
    assert Counter(map(len, built[-1].maximal_faces)) == {3: 5775}  # amalgam h12


def test_removable_carets_match_subtree_definition(loop33: System, amalgam33: System, bs23_aug: System):
    # an expansion vertex is removable when the interior below it is
    # exactly its caret, read here off the whole interior
    kept = nested = 0
    for sys in (loop33, amalgam33, bs23_aug):
        system, t0 = sys.t0.system, sys.t0
        for t in gt.enumerate_admissible(sys.g, sys.gs, t0, 3):
            expected = []
            for addr in sorted(t.interior - t0.interior):
                entry = system.entry_of(addr)
                if system.gate_type[entry] is None:
                    continue
                below = {a for a in t.interior if a[: len(addr)] == addr}
                if below == forced_completion(system, addr, entry):
                    expected.append((addr, system.gate_type[entry]))
                else:
                    nested += 1
            assert _removable_carets(t, t0) == expected
            kept += len(expected)
    assert kept > 10_000 and nested > 1_000


def lowest_nonempty_link(sys: System, max_vertices: int, heights: int):
    """The fast-path link of the least count class, within ``heights`` of
    the base, whose link has a vertex; None if there is none."""
    for h in range(sys.base.height, sys.base.height + heights):
        for x in sf_vertices_at_height(h, sys.table, sys.base):
            link = descending_link(x, sys.table, sys.base, max_vertices=max_vertices)
            if link.vertices:
                return link
    return None


def test_fast_link_matches_oracle_on_random_systems():
    # the first seeds, in order, whose augmented system is viral and whose
    # lowest nonempty link fits the caps; the comparison chooses no seed
    checked, f_vectors = [], set()
    for seed in itertools.count():
        sys = make_system(gt.augment(random_gog(random.Random(seed), min_degree_two=True)))
        if not is_viral(sys.table, sys.base):
            continue
        try:
            link = lowest_nonempty_link(sys, max_vertices=10_000, heights=40)
            if link is None:
                continue
            oracle = oracle_descending_link(link.x, sys.g, sys.gs, sys.t0, max_trees=5_000)
        except CapExceeded:
            continue
        assert link_difference(link, oracle) is None, (seed, link.x)
        checked.append(seed)
        f_vectors.add(link.f_vector)
        if len(checked) == 20:
            break
    assert checked == [2, 4, 6, 15, 22, 31, 32, 42, 46, 55, 56, 67, 69, 95, 104, 121, 122, 137, 140, 143]
    # every one is a single-expansion link, so only vertex sets are compared
    assert f_vectors == {(200,), (4000,), (9240,)}


def lowest_link_with_edge(sys: System, max_vertices: int, heights: int):
    """The fast-path link of the least count class, within ``heights`` of
    the base, whose link has an edge; None if there is none."""
    for h in range(sys.base.height, sys.base.height + heights):
        for x in sf_vertices_at_height(h, sys.table, sys.base):
            link = descending_link(x, sys.table, sys.base, max_vertices=max_vertices)
            if len(link.f_vector) >= 2:
                return link
    return None


def test_fast_link_edges_match_oracle_on_random_systems():
    # the first seeds, in order, whose augmented system is viral and whose
    # lowest link with an edge fits the caps; the comparison chooses no seed
    checked, f_vectors = [], set()
    for seed in itertools.count():
        sys = make_system(gt.augment(random_gog(random.Random(seed), min_degree_two=True)))
        if not is_viral(sys.table, sys.base):
            continue
        try:
            link = lowest_link_with_edge(sys, max_vertices=10_000, heights=40)
            if link is None:
                continue
            oracle = oracle_descending_link(link.x, sys.g, sys.gs, sys.t0, max_trees=20_000)
        except CapExceeded:
            continue
        assert link_difference(link, oracle) is None, (seed, link.x)
        checked.append(seed)
        f_vectors.add(link.f_vector)
        if len(checked) == 5:
            break
    assert checked == [2, 32, 42, 55, 67]
    assert f_vectors == {(1470, 73500)}  # edges are compared, not only vertices


def disjoint_subsets_complex(n: int, size: int):
    """The size-subsets of range(n) in lexicographic order, and the sorted
    layers of the complex whose faces are pairwise disjoint ones."""
    verts = list(itertools.combinations(range(n), size))
    index = {s: i for i, s in enumerate(verts)}
    layers = [[(i,) for i in range(len(verts))]]
    while True:
        grown = sorted(
            f + (index[s],)
            for f in layers[-1]
            for s in itertools.combinations(sorted(set(range(n)).difference(*(verts[i] for i in f))), size)
            if index[s] > f[-1]
        )
        if not grown:
            return verts, layers
        layers.append(grown)


def test_single_type_link_is_disjoint_subsets(amalgam33: System):
    # amalgam(3,3) has one caret type with 4 terminal leaves, and every
    # set of disjoint carets that fits is allowed
    assert amalgam33.table.M == ((4,),)
    heights = []
    for h in range(3, 13):
        for x in sf_vertices_at_height(h, amalgam33.table, amalgam33.base):
            link = descending_link(x, amalgam33.table, amalgam33.base)
            verts, layers = disjoint_subsets_complex(x.leaves[0], 4)
            assert link.vertices == tuple(LinkVertex(0, (s,)) for s in verts), h
            assert [[(v,) for v in range(len(verts))], *map(list, link.higher_faces)] == layers, h
            heights.append(h)
    assert heights == [3, 6, 9, 12]
    assert link.f_vector == (495, 17325, 5775)


def test_descending_link_makes_one_realizable_call(loop33: System, monkeypatch):
    calls = 0
    search = count_algebra.realizable

    def counted(*args, **kwargs):
        nonlocal calls
        calls += 1
        return search(*args, **kwargs)

    monkeypatch.setattr(count_algebra, "realizable", counted)
    (x,) = sf_vertices_at_height(14, loop33.table, loop33.base)
    assert descending_link(x, loop33.table, loop33.base).f_vector == (1470, 73500)
    assert calls == 1


def test_face_counts_match_closed_form(loop33: System, amalgam33: System):
    cases = [
        (loop33, 10, (200,)),
        (loop33, 14, (1470, 73500)),
        (amalgam33, 9, (126, 315)),
        (amalgam33, 12, (495, 17325, 5775)),
    ]
    for sys, h, f_vector in cases:
        (x,) = sf_vertices_at_height(h, sys.table, sys.base)
        link = descending_link(x, sys.table, sys.base)
        assert link.f_vector == f_vector
        allowed = count_algebra.allowed_multisets(x, sys.table, sys.base)
        assert link_f_vector(x, sys.table, allowed) == f_vector
        k = len(x.leaves)
        types = [v.caret_type for v in link.vertices]
        for faces in [[(i,) for i in range(len(types))], *link.higher_faces]:
            by_mu = Counter(tuple(sum(types[i] == j for i in f) for j in range(k)) for f in faces)
            for mu, n in by_mu.items():
                # one multiset's faces: the count in its own dimension
                assert n == link_f_vector(x, sys.table, [mu])[sum(mu) - 1], (h, mu)


def test_planted_face_read_from_link(loop33: System, amalgam33: System, bs23_aug: System):
    # no bundled system reaches a planted face under LEMMA_CHECK_CAP, so
    # call the lookup directly on larger links; the bs23_aug link is empty
    # although its leaves fit a type-1 caret
    found = missing = 0
    cases = ((loop33, 10), (loop33, 14), (amalgam33, 9), (amalgam33, 12), (bs23_aug, 15))
    for sys, h in cases:
        (x,) = sf_vertices_at_height(h, sys.table, sys.base)
        link = descending_link(x, sys.table, sys.base)
        cx = link.to_complex()
        k = len(x.leaves)
        for size in range(1, 5):
            # the definition: every i carets of type 1, i <= size, can be
            # removed together
            expected = all(
                elementary_expansion_ok(x, (i,) + (0,) * (k - 1), sys.table, sys.base)
                for i in range(1, size + 1)
            )
            sigma = _planted_same_type_face(link, size)
            if expected:
                assert len(sigma) == size and cx.is_face(sigma), (h, size)
                assert all(link.vertices[i].caret_type == 0 for i in sigma)
                found += 1
                if size > 1:
                    # the face is read from the link: a link built only
                    # below dimension size-1 does not hold it
                    low = DescendingLink(x, link.vertices, link.higher_faces[: size - 2])
                    assert _planted_same_type_face(low, size) is None
            else:
                assert sigma is None, (h, size)
                missing += 1
    assert found and missing


def test_link_builds_hash_no_link_vertices(loop33: System, monkeypatch):
    calls = 0
    hash_vertex = LinkVertex.__hash__

    def counted(self):
        nonlocal calls
        calls += 1
        return hash_vertex(self)

    monkeypatch.setattr(LinkVertex, "__hash__", counted)
    (x10,) = sf_vertices_at_height(10, loop33.table, loop33.base)
    (x14,) = sf_vertices_at_height(14, loop33.table, loop33.base)
    descending_link(x14, loop33.table, loop33.base)
    for x in (x10, x14):
        oracle_descending_link(x, loop33.g, loop33.gs, loop33.t0)
    assert calls == 0
    hash(LinkVertex(0, ((0,),)))
    assert calls == 1  # the counter counts


@pytest.mark.parametrize(
    "name,height,oracle,digest",
    [
        (
            "amalgam33",
            12,
            False,
            "757f8a9f1419b70bd11ea305edc2ec2cec47bcdbd5a360443fd369a83903c4b8",
        ),
        (
            "loop33",
            14,
            True,
            "d8335c29f5145b8ce310738a97747b037f1bd9d5f41fb89850eb0c6ba4b03436",
        ),
    ],
)
def test_link_json_pinned(request, name, height, oracle, digest):
    sys = request.getfixturevalue(name)
    (x,) = sf_vertices_at_height(height, sys.table, sys.base)
    if oracle:
        link = oracle_descending_link(x, sys.g, sys.gs, sys.t0)
    else:
        link = descending_link(x, sys.table, sys.base)
    data = json.dumps(link.to_json_dict(), sort_keys=True)
    assert hashlib.sha256(data.encode()).hexdigest() == digest
