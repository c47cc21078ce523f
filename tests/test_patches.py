import copy
import itertools
import pickle
import random
from collections import Counter

import pytest

import gogtool as gt
from gogtool import patches
from gogtool.errors import (
    DegenerateGraphError,
    InadmissibleGateSystem,
    ValidationError,
)
from gogtool.model import Edge, GraphOfGroups, HalfEdge

from conftest import DATA, System, forced_completion, make_system, oracle_caret_census, random_gog


def test_caret_loop33(loop33: System):
    (c, _) = gt.caret_table(loop33.g, loop33.gs).to_json_dict()["carets"]
    assert c == {"gate": "e.iota", "interior": 1, "terminal_leaves": {"e.iota": 3, "e.tau": 2}}


def test_caret_amalgam(amalgam33: System):
    (nu,) = amalgam33.gs.gates
    (c,) = gt.caret_table(amalgam33.g, amalgam33.gs).to_json_dict()["carets"]
    assert c == {"gate": str(nu), "interior": 3, "terminal_leaves": {str(nu): 4}}


def test_caret_z_line(z_line: System):
    (c, _) = gt.caret_table(z_line.g, z_line.gs).to_json_dict()["carets"]
    assert c == {"gate": "e.iota", "interior": 1, "terminal_leaves": {"e.iota": 1}}


def test_caret_inadmissible_detected_up_front():
    g = gt.example_family("loop(3,3)")
    gs = gt.GateSystem(g, (HalfEdge("e", "iota"),))
    with pytest.raises(InadmissibleGateSystem):
        gt.caret_table(g, gs)


@pytest.mark.parametrize(
    "family,expected_m,expected_i",
    [
        ("loop(3,3)", ((3, 2), (2, 3)), (1, 1)),
        ("loop(6,9)", ((9, 8), (5, 6)), (1, 1)),
        ("bs(2,3)", ((3, 2), (1, 2)), (1, 1)),
        ("z_line", ((1, 0), (0, 1)), (1, 1)),
    ],
)
def test_caret_tables_match_oracle(family, expected_m, expected_i):
    g = gt.example_family(family)
    gs = gt.default_gates(g)
    table = gt.caret_table(g, gs)
    assert table.M == expected_m
    assert table.I == expected_i
    for j, nu in enumerate(gs.gates):
        terms, inter = oracle_caret_census(g, gs, nu)
        assert inter == table.I[j]
        assert [terms.get(h, 0) for h in gs.gates] == list(table.column(j))


def test_caret_table_oracle_on_triple(triple: System):
    assert triple.table.M == ((13, 12, 30), (12, 13, 30), (3, 3, 4))
    assert triple.table.I == (6, 6, 15)
    for j, nu in enumerate(triple.gs.gates):
        terms, inter = oracle_caret_census(triple.g, triple.gs, nu)
        assert inter == triple.table.I[j]
        assert [terms.get(h, 0) for h in triple.gs.gates] == list(triple.table.column(j))


def test_caret_table_grows_in_one_system(monkeypatch):
    made = []

    class CountedSystem(gt.TreeSystem):
        def __post_init__(self):
            made.append(self.root)
            super().__post_init__()

    monkeypatch.setattr(patches, "TreeSystem", CountedSystem)
    rng = random.Random(2408)
    for _ in range(20):
        g = random_gog(rng, min_degree_two=True)
        gs = gt.default_gates(g)
        made.clear()
        table = gt.caret_table(g, gs)
        assert len(made) == 1
        for j, nu in enumerate(gs.gates):
            terms, inter = oracle_caret_census(g, gs, nu)
            assert inter == table.I[j]
            assert [terms.get(h, 0) for h in gs.gates] == list(table.column(j))


def test_base_tree_star(loop33: System):
    assert loop33.base == gt.CountVector(1, (3, 3))
    assert loop33.t0.size == 7  # root plus six leaves


def test_base_tree_idempotent(loop33: System):
    again = gt.base_tree(loop33.g, loop33.gs, loop33.t0)
    assert again == loop33.t0


def test_base_tree_amalgam_both_seeds(amalgam33: System):
    t_v = gt.base_tree(amalgam33.g, amalgam33.gs, "v")
    assert t_v.counts() == gt.CountVector(1, (3,))
    t_w = gt.base_tree(amalgam33.g, amalgam33.gs, "w")
    assert t_w.counts() == gt.CountVector(4, (6,))


def test_base_tree_rejects_degenerate_graph():
    g = GraphOfGroups(("v", "w"), (Edge("e", "v", "w", 1, 2),))
    gs = gt.default_gates(g)
    with pytest.raises(DegenerateGraphError):
        gt.base_tree(g, gs, "v")


def test_expand_leaf_counts(loop33: System):
    addr, entry = loop33.t0.typed_leaves()[0]
    t1 = gt.expand_leaf(loop33.t0, addr)
    assert t1.counts() == gt.CountVector(2, (5, 5))
    assert t1.contains(loop33.t0)


def test_expand_disjoint_leaves_commute(loop33: System):
    leaves = loop33.t0.typed_leaves()
    a, b = leaves[0][0], leaves[3][0]
    t_ab = gt.expand_leaf(gt.expand_leaf(loop33.t0, a), b)
    t_ba = gt.expand_leaf(gt.expand_leaf(loop33.t0, b), a)
    assert t_ab == t_ba


def test_expand_leaf_errors(loop33: System):
    with pytest.raises(ValidationError, match="not in the patch"):
        gt.expand_leaf(loop33.t0, (0, 0))
    with pytest.raises(ValidationError, match="not a leaf"):
        gt.expand_leaf(loop33.t0, ())


def test_history_empty_and_order_invariance(loop33: System):
    assert gt.history(loop33.t0, loop33.t0) == gt.History((0, 0))
    a = next(addr for addr, e in loop33.t0.typed_leaves() if e == HalfEdge("e", "iota"))
    t1 = gt.expand_leaf(loop33.t0, a)
    b = next(addr for addr, e in t1.typed_leaves() if e == HalfEdge("e", "tau"))
    t2 = gt.expand_leaf(t1, b)
    assert gt.history(t2, loop33.t0) == gt.History((1, 1))
    # the other feasible order gives the identical patch
    if b in {addr for addr, _ in loop33.t0.typed_leaves()}:
        t2_alt = gt.expand_leaf(gt.expand_leaf(loop33.t0, b), a)
        assert t2_alt == t2


def test_history_subtree_precondition(loop33: System):
    a = loop33.t0.typed_leaves()[0][0]
    t1 = gt.expand_leaf(loop33.t0, a)
    with pytest.raises(ValidationError, match="not a subtree"):
        gt.history(loop33.t0, t1)


def test_history_replay_oracle(loop33: System, triple: System):
    # greedy replay of the history must reproduce the tree exactly
    rng = random.Random(4242)
    for sys in (loop33, triple):
        for _ in range(20):
            t = sys.t0
            for _ in range(rng.randint(1, 3)):
                leaves = t.typed_leaves()
                t = gt.expand_leaf(t, leaves[rng.randrange(len(leaves))][0])
            n = gt.history(t, sys.t0)
            cur = sys.t0
            remaining = list(n.expansions)
            while cur != t:
                progressed = False
                for addr, entry in cur.typed_leaves():
                    if addr in t.interior:
                        cur = gt.expand_leaf(cur, addr)
                        remaining[sys.gs.type_index(entry)] -= 1
                        progressed = True
                        break
                assert progressed, "replay got stuck"
            assert all(r == 0 for r in remaining)


def test_union_intersection_disjoint_and_nested(loop33: System):
    leaves = loop33.t0.typed_leaves()
    a, b = leaves[0][0], leaves[4][0]
    ta = gt.expand_leaf(loop33.t0, a)
    tb = gt.expand_leaf(loop33.t0, b)
    u = gt.tree_union(ta, tb)
    i = gt.tree_intersection(ta, tb)
    assert u.nodes == ta.nodes | tb.nodes
    assert i == loop33.t0
    assert gt.tree_union(loop33.t0, ta) == ta
    assert gt.tree_intersection(loop33.t0, ta) == loop33.t0


def test_union_intersection_invariant_guard(loop33: System, monkeypatch):
    # closure makes these checks unreachable on real patches, so make the
    # admissibility verdict fail on everything but the two inputs
    leaves = loop33.t0.typed_leaves()
    ta = gt.expand_leaf(loop33.t0, leaves[0][0])
    tb = gt.expand_leaf(loop33.t0, leaves[4][0])
    inputs = {ta.interior, tb.interior}
    monkeypatch.setattr(gt.TreePatch, "is_admissible", lambda self: self.interior in inputs)
    with pytest.raises(gt.InvariantViolation, match="union"):
        gt.tree_union(ta, tb)
    with pytest.raises(gt.InvariantViolation, match="intersection"):
        gt.tree_intersection(ta, tb)


def test_union_incompatible_systems(loop33: System, bs23: System):
    with pytest.raises(ValidationError, match="incompatible"):
        gt.tree_union(loop33.t0, bs23.t0)


def test_union_intersection_operand_errors(loop33: System):
    # the bare root is a patch, but its one leaf has no gate entry
    bare = gt.TreePatch(loop33.t0.system, frozenset())
    for combine in (gt.tree_union, gt.tree_intersection):
        with pytest.raises(ValidationError, match=r"^first patch is not admissible; bad leaves: \[\(\(\), None\)\]$"):
            combine(bare, loop33.t0)
        with pytest.raises(ValidationError, match=r"^second patch is not admissible; bad leaves: \[\(\(\), None\)\]$"):
            combine(loop33.t0, bare)


def test_enumerate_counts(loop33: System):
    assert gt.enumerate_admissible(loop33.g, loop33.gs, loop33.t0, 0) == [loop33.t0]
    one = gt.enumerate_admissible(loop33.g, loop33.gs, loop33.t0, 1)
    assert len(one) == 7


def test_enumerate_matches_sequence_dedup_oracle():
    # independent recount: depth-first over expansion sequences, dedup by
    # the expanded-vertex set, each caret grown by its definition
    # (``forced_completion``) and each patch built by the validating
    # constructor; on the bundled systems and 10 seeded random ones
    def all_trees(t0, budget):
        system = t0.system
        seen = {}

        def rec(t, used):
            key = frozenset(used)
            if key in seen:
                return
            seen[key] = t
            if len(used) == budget:
                return
            for addr, _ in t.typed_leaves():
                grown = t.interior | forced_completion(system, addr, system.entry_of(addr))
                rec(gt.TreePatch(system, frozenset(grown)), used | {addr})

        rec(t0, frozenset())
        return {p.interior: p for p in seen.values()}

    rng = random.Random(1717)
    graphs = [gt.parse_gog(path.read_text()) for path in sorted(DATA.glob("*.gog"))]
    graphs += [random_gog(rng, min_degree_two=True) for _ in range(10)]
    sizes = []
    for sys in map(make_system, graphs):
        for budget in (1, 2, 3, 4):
            try:  # past 3,000 trees the oracle takes seconds
                fast = gt.enumerate_admissible(sys.g, sys.gs, sys.t0, budget, max_trees=3000)
            except gt.CapExceeded:
                assert budget > 2
                break
            slow = all_trees(sys.t0, budget)
            assert len(fast) == len({p.interior for p in fast}) == len(slow)
            for p in fast:
                q = slow[p.interior]
                assert sorted(p._leaf_list) == sorted(q._leaf_list)
                assert p.counts() == q.counts() and p.is_admissible()
            sizes.append((budget, len(fast)))
    assert Counter(b for b, _ in sizes) == {1: 16, 2: 16, 3: 10, 4: 6}
    assert sum(n for _, n in sizes) == 9550


def test_enumeration_grows_each_patch_once(monkeypatch):
    # canonical growth: every patch but t0 is grown once, from its parent
    calls = 0
    grow = patches._grow

    def counted(*args):
        nonlocal calls
        calls += 1
        return grow(*args)

    monkeypatch.setattr(patches, "_grow", counted)
    rng = random.Random(2408)
    graphs = [gt.parse_gog(path.read_text()) for path in sorted(DATA.glob("*.gog"))]
    graphs += [random_gog(rng, min_degree_two=True) for _ in range(8)]
    total = 0
    for sys in map(make_system, graphs):
        for budget in (1, 2, 3):
            calls = 0
            trees = gt.enumerate_admissible(sys.g, sys.gs, sys.t0, budget)
            assert calls == len(trees) - 1 == len({t.interior for t in trees}) - 1
            total += calls
    assert total > 20000


@pytest.mark.parametrize("name", ["loop33", "bs23_aug"])
def test_bare_root(name: str, request):
    # the one leaf address with no last step to read an entry off
    sys = request.getfixturevalue(name)
    t = gt.TreePatch(sys.t0.system, frozenset())
    assert t.leaves() == (((), None),)
    assert t.nodes == {()}
    assert t.counts() == gt.CountVector(0, (0,) * sys.gs.k)
    assert not t.is_admissible()


def test_patches_copy_and_pickle(loop33: System):
    # a plain class with slots: copies and pickles keep value and leaves
    trees = gt.enumerate_admissible(loop33.g, loop33.gs, loop33.t0, 2)
    bare = gt.TreePatch(loop33.t0.system, frozenset())
    for t in [bare, *trees]:
        for twin in (copy.copy(t), copy.deepcopy(t), pickle.loads(pickle.dumps(t))):
            assert twin == t and type(twin) is gt.TreePatch
            assert twin._leaf_list == t._leaf_list and twin.nodes == t.nodes
            assert twin.counts() == t.counts() and twin.is_admissible() == t.is_admissible()


def test_patches_are_values(loop33: System):
    # equality, hash and repr of a dataclass over (system, interior)
    trees = gt.enumerate_admissible(loop33.g, loop33.gs, loop33.t0, 2)
    bare = gt.TreePatch(loop33.t0.system, frozenset())
    for t in [bare, *trees]:
        assert t == gt.TreePatch(t.system, t.interior)
        assert hash(t) == hash((t.system, t.interior))
        assert repr(t) == f"TreePatch(system={t.system!r}, interior={t.interior!r})"
        assert (t == t.interior) is False and t.__eq__(t.interior) is NotImplemented
    twins = [gt.TreePatch(t.system, t.interior) for t in trees]
    assert len({bare, *trees, *twins, gt.TreePatch(bare.system, frozenset())}) == len(trees) + 1


def test_enumeration_shares_leaf_tuples(loop33: System):
    # each address lies below one caret root, so one placement per leaf
    # makes one leaf address tuple per distinct address
    trees = gt.enumerate_admissible(loop33.g, loop33.gs, loop33.t0, 4)
    objects = {id(x) for p in trees for x in p._leaf_list}
    addresses = {x for p in trees for x in p._leaf_list}
    assert len(objects) == len(addresses)
    assert len(trees) == 3882


def test_growth_budget(loop33: System, monkeypatch):
    # a loop(3,3) caret grows five leaves below its attach vertex
    monkeypatch.setattr(patches, "NODE_BUDGET", 4)
    with pytest.raises(gt.CapExceeded, match="node budget of 4"):
        gt.caret_table(loop33.g, loop33.gs)


def test_enumerate_cap():
    sys = make_system(gt.example_family("loop(3,3)"))
    with pytest.raises(gt.CapExceeded):
        gt.enumerate_admissible(sys.g, sys.gs, sys.t0, 3, max_trees=10)


def test_interval_lattice_two_carets(loop33: System):
    leaves = loop33.t0.typed_leaves()
    a, b = leaves[0][0], leaves[3][0]
    top = gt.expand_leaf(gt.expand_leaf(loop33.t0, a), b)
    lat = gt.interval_lattice(loop33.t0, top)
    assert lat.rank == 2 and lat.size == 4
    assert lat.elements[0] == loop33.t0 and lat.elements[-1] == top
    for el in lat.elements:
        assert el.is_admissible()


def test_interval_lattice_trivial(loop33: System):
    lat = gt.interval_lattice(loop33.t0, loop33.t0)
    assert lat.rank == 0 and lat.size == 1


def test_interval_lattice_rejects_nested(loop33: System):
    a = loop33.t0.typed_leaves()[0][0]
    t1 = gt.expand_leaf(loop33.t0, a)
    inner = next(addr for addr, _ in t1.typed_leaves() if addr not in loop33.t0.nodes)
    t2 = gt.expand_leaf(t1, inner)
    with pytest.raises(ValidationError, match="not an elementary expansion"):
        gt.interval_lattice(loop33.t0, t2)
    with pytest.raises(ValidationError, match="does not contain bottom"):
        gt.interval_lattice(t1, loop33.t0)


def test_interval_lattice_matches_brute_force(loop33: System):
    leaves = [a for a, _ in loop33.t0.typed_leaves()]
    for picks in itertools.combinations(leaves, 3):
        top = loop33.t0
        for addr in picks:
            top = gt.expand_leaf(top, addr)
        lat = gt.interval_lattice(loop33.t0, top)
        assert lat.size == 8
        between = {
            p.nodes
            for p in gt.enumerate_admissible(loop33.g, loop33.gs, loop33.t0, 3)
            if p.nodes <= top.nodes
        }
        assert {el.nodes for el in lat.elements} == between
        break  # one triple suffices; the pairwise case is covered in acceptance


def test_check_viral_pass_and_fail(loop33: System, z_line: System, bs23: System):
    rep = gt.check_viral(loop33.g, loop33.gs, loop33.t0)
    assert rep.passed and rep.reasons == ()
    repz = gt.check_viral(z_line.g, z_line.gs, z_line.t0)
    assert not repz.passed and "M_11 = 1" in repz.reasons
    assert repz.repaired_base is None
    repb = gt.check_viral(bs23.g, bs23.gs, bs23.t0)
    assert not repb.passed and "M_22 = 2" in repb.reasons


def test_check_viral_repair_on_triple(triple: System):
    rep = gt.check_viral(triple.g, triple.gs, triple.t0)
    assert not rep.passed
    assert rep.reasons == ("L_3(T0) = 0",)
    assert rep.repaired_base is not None
    assert rep.repaired_base.system.gates == triple.gs  # nothing dropped
    assert all(l >= 2 for l in rep.repaired_base.counts().leaves)
    assert rep.repair_trace


def occurrence_graphs():
    """The bundled graphs, 30 seeded random ones, loop(a, 1) for a = 1..4,
    and directed 2- and 3-cycles with index 1 at each head, where a
    subtree can miss a half-edge that the whole model still exits."""
    rng = random.Random(2408_05673)
    graphs = [gt.parse_gog(path.read_text()) for path in sorted(DATA.glob("*.gog"))]
    graphs += [random_gog(rng, max_vertices=3, min_degree_two=True) for _ in range(30)]
    graphs += [gt.example_family(f"loop({a},1)") for a in range(1, 5)]
    for n, tails in ((2, (1, 3)), (2, (2, 2)), (3, (1, 1, 1)), (3, (3, 1, 2))):
        names = tuple(f"v{i}" for i in range(n))
        edges = tuple(Edge(f"c{i}", names[i], names[(i + 1) % n], a, 1) for i, a in enumerate(tails))
        graphs.append(GraphOfGroups(names, edges))
    return graphs


def test_every_gate_type_occurs():
    """Every gate type is the type of a leaf of some tree grown from any
    admissible t0, for every admissible gate subset and root: expanding one
    leaf of each newly seen type reaches all k types.  ``check_viral``'s
    repair rests on this (its docstring has the proof)."""
    rng = random.Random(4115)
    cases = 0
    for g in occurrence_graphs():
        halves = g.half_edges()
        for r in range(1, len(halves) + 1):
            for gates in itertools.combinations(halves, r):
                gs = gt.GateSystem(g, gates)
                if not gt.is_admissible(g, gs).admissible:
                    continue
                for root in g.vertices:
                    t = t0 = gt.base_tree(g, gs, root)
                    for _ in range(3):
                        t = gt.expand_leaf(t, rng.choice(t.typed_leaves())[0])
                    for start in (t0, t):
                        seen = {}  # type -> a tree with a leaf of that type
                        for _, e in start.typed_leaves():
                            seen.setdefault(e, start)
                        todo = list(seen)
                        while todo:
                            e = todo.pop()
                            tree = seen[e]
                            grown = gt.expand_leaf(tree, next(a for a, f in tree.typed_leaves() if f == e))
                            for _, f in grown.typed_leaves():
                                if f not in seen:
                                    seen[f] = grown
                                    todo.append(f)
                        assert sorted(seen) == list(gs.gates), (g, gates, root)
                        cases += 1
    assert cases > 1000


def test_check_viral_repair_budget(triple: System):
    rep = gt.check_viral(triple.g, triple.gs, triple.t0, repair_budget=0)
    assert rep.repaired_base is None
    assert any("budget" in line for line in rep.repair_trace)


def numbering_systems():
    """Tree systems at every root of the bundled systems and of 20 seeded
    random ones."""
    rng = random.Random(808)
    graphs = [gt.parse_gog(path.read_text()) for path in sorted(DATA.glob("*.gog"))]
    graphs += [random_gog(rng, min_degree_two=True) for _ in range(20)]
    for g in graphs:
        gs = gt.default_gates(g)
        for root in g.vertices:
            yield gt.TreeSystem(g, gs, root)


def test_step_numbers_keep_address_order():
    rng = random.Random(4040)
    for system in numbering_systems():
        addrs = []
        for _ in range(200):
            addr = ()
            for _ in range(rng.randint(0, 4)):
                addr += (rng.choice(list(system.children[system.entry_of(addr)])),)
            addrs.append(addr)
        decoded = [tuple(system.steps[s] for s in a) for a in addrs]
        assert [tuple(system.steps[s] for s in a) for a in sorted(addrs)] == sorted(decoded)


def test_child_tables_match_definition():
    count = 0
    for system in numbering_systems():
        g = system.graph
        assert list(system.entries) == sorted(g.half_edges()) + [None]
        assert list(system.steps) == sorted(system.steps)
        for e, entry in enumerate(system.entries):
            label = system.root if entry is None else g.vertex_of(entry)
            kids = system.children[e]
            assert list(kids) == sorted(kids)
            assert len(kids) == g.degree(label) - (entry is not None)
            for s, child in kids.items():
                h, lift = system.steps[s]
                assert g.vertex_of(h) == label
                assert lift < g.index(h) - (h == entry)
                assert system.entries[child] == h.opposite() == system.entries[system.step_entry[s]]
                count += 1
            gate = None if entry not in system.gates else system.gates.type_index(entry)
            assert system.gate_type[e] == gate
    assert count > 1000


def test_tree_hot_paths_hash_no_half_edges(loop33: System, monkeypatch):
    calls = 0
    hash_half_edge = HalfEdge.__hash__

    def counted(self):
        nonlocal calls
        calls += 1
        return hash_half_edge(self)

    monkeypatch.setattr(HalfEdge, "__hash__", counted)
    rng = random.Random(99)
    trees = gt.enumerate_admissible(loop33.g, loop33.gs, loop33.t0, 3)
    for _ in range(200):
        a, b = rng.sample(trees, 2)
        gt.tree_union(a, b)
        gt.tree_intersection(a, b)
    for t in rng.sample(trees, 300):
        gt.history(t, loop33.t0)
        t.counts()
    assert calls == 0
    assert HalfEdge("e", "iota") in loop33.gs and calls == 1  # the counter counts


def test_growth_and_combination_walk_no_whole_interior(monkeypatch):
    """Grown, united and intersected patches take their leaf lists from
    their parents' and the shape table: each entry's shape is built once per
    system, and the definition never walks more than one caret."""
    sizes, builds = [], Counter()
    leaves, build_shape = patches._leaves, patches._build_shape

    def counted_leaves(system, interior):
        sizes.append(len(interior))
        return leaves(system, interior)

    def counted_build(system, entry, at):
        builds[id(system), entry] += 1
        return build_shape(system, entry, at)

    monkeypatch.setattr(patches, "_leaves", counted_leaves)
    monkeypatch.setattr(patches, "_build_shape", counted_build)
    # a system of its own, so its shapes are built under the counter
    sys = make_system(gt.example_family("loop(3,3)"))
    rng = random.Random(99)
    trees = gt.enumerate_admissible(sys.g, sys.gs, sys.t0, 3)
    for _ in range(200):
        a, b = rng.sample(trees, 2)
        gt.tree_union(a, b).counts()
        gt.tree_intersection(a, b).counts()
    system = sys.t0.system
    gates = {e for e, ty in enumerate(system.gate_type) if ty is not None}
    assert {e for s, e in builds if s == id(system)} >= gates  # growth read the shapes
    assert max(builds.values()) == 1
    assert max(sizes, default=0) <= max(sys.table.I)


def test_derived_leaf_lists_match_definition():
    """Grown, united and intersected patches list the leaves the definition
    gives.  Compared as sorted lists, not sets: a leaf listed twice would
    change ``size`` and with it ``sort_key``."""
    rng = random.Random(5673)
    graphs = [gt.parse_gog(path.read_text()) for path in sorted(DATA.glob("*.gog"))]
    graphs += [random_gog(rng, min_degree_two=True) for _ in range(20)]
    for g in graphs:
        sys = make_system(g)
        trees = gt.enumerate_admissible(sys.g, sys.gs, sys.t0, 2)
        if len(trees) <= 100:
            trees = gt.enumerate_admissible(sys.g, sys.gs, sys.t0, 3)
        derived = trees[1:]  # all but t0, which has no parent patch
        for _ in range(300):
            a, b = rng.choice(trees), rng.choice(trees)
            derived += [gt.tree_union(a, b), gt.tree_intersection(a, b)]
        for t in rng.sample(trees, min(3, len(trees))):
            derived += [gt.expand_leaf(t, a) for a, _ in t.leaves()]
        for t in derived:
            assert sorted(t._leaf_list) == sorted(patches._leaves(t.system, t.interior))


def test_derived_patches_equal_the_definition():
    """Every grown, united and intersected patch equals the validating
    constructor's patch on its interior, and its counts and admissibility
    are the leaf census of the definition; enumerated patches also carry the
    counts their history predicts."""
    rng = random.Random(5673)
    graphs = [gt.parse_gog(path.read_text()) for path in sorted(DATA.glob("*.gog"))]
    graphs += [random_gog(rng, min_degree_two=True) for _ in range(20)]
    for g in graphs:
        sys = make_system(g)
        trees = gt.enumerate_admissible(sys.g, sys.gs, sys.t0, 2)
        if len(trees) <= 100:
            trees = gt.enumerate_admissible(sys.g, sys.gs, sys.t0, 3)
        for t in trees:
            assert t.counts() == gt.predict_counts(gt.history(t, sys.t0), sys.table, sys.base)
        derived = trees[1:]  # all but t0, which has no parent patch
        for _ in range(300):
            a, b = rng.choice(trees), rng.choice(trees)
            derived += [gt.tree_union(a, b), gt.tree_intersection(a, b)]
        for t in rng.sample(trees, min(3, len(trees))):
            derived += [gt.expand_leaf(t, a) for a, _ in t.leaves()]
        for t in derived:
            assert gt.TreePatch(t.system, t.interior) == t
            entry_of = t.system.entry_of
            types = [t.system.gate_type[entry_of(a)] for a in patches._leaves(t.system, t.interior)]
            census = tuple(types.count(i) for i in range(sys.gs.k))
            assert t.counts() == gt.CountVector(len(t.interior), census)
            assert t.is_admissible() == (None not in types)


def test_shapes_match_the_stack_walk():
    """Each entry's shape, placed at a real address with that entry, has the
    walk's interior and the definition's leaves, and its delta is the count
    change; for a gate of type j that is (I_j, M column j - e_j)."""
    rng = random.Random(4114)
    graphs = [gt.parse_gog(path.read_text()) for path in sorted(DATA.glob("*.gog"))]
    graphs += [random_gog(rng, min_degree_two=True) for _ in range(20)]
    placed = 0
    for g in graphs:
        gs = gt.default_gates(g)
        system = gt.TreeSystem(g, gs, g.vertices[0])
        table = gt.caret_table(g, gs)
        # the first address of each entry, breadth first
        first: dict[int, tuple] = {}
        level = [()]
        for _ in range(6):
            for a in level:
                first.setdefault(system.entry_of(a), a)
            level = [a + (s,) for a in level[:50] for s in system.children[system.entry_of(a)]]
        assert len(first) == len(system.entries)
        for entry, addr in first.items():
            interior = forced_completion(system, addr, entry)
            mat, shape_leaves, delta = system.place(addr)
            assert mat == interior
            leaves = patches._leaves(system, interior)
            assert sorted(shape_leaves) == sorted(leaves)
            shape = system._shapes[entry]
            assert shape_leaves == [addr + a for a in shape.leaves]
            types = [system.gate_type[system.entry_of(a)] for a in leaves]
            own = system.gate_type[entry]
            census = tuple(types.count(i) - (i == own) for i in range(gs.k))
            assert delta == gt.CountVector(len(interior), census)
            if own is not None:
                assert delta.leaves == tuple(
                    m - (i == own) for i, m in enumerate(table.column(own))
                )
                assert delta.interior == table.I[own]
            placed += 1
    assert placed > 100


def test_patch_validation_rejects_bad_interiors(loop33: System):
    system = loop33.t0.system
    iota, tau = HalfEdge("e", "iota"), HalfEdge("e", "tau")
    i0, t1, t2 = (system.steps.index(s) for s in ((iota, 0), (tau, 1), (tau, 2)))
    with pytest.raises(ValidationError, match="prefix-closed"):
        gt.TreePatch(system, frozenset({(i0,)}))
    # loop33 has six steps, three lifts of each half-edge of e: a step that
    # does not exist, such as (e.iota, 3), has no number in the system
    n = len(system.steps)
    bad = [{(), (n,)}, {(), (-1,)}]
    # below a foreign step too, in whatever order the set yields the two
    bad += [{(), (s,), (s, 0)} for s in range(n, n + 8)]
    for interior in bad:
        with pytest.raises(ValidationError, match="not a child step"):
            gt.TreePatch(system, frozenset(interior))
    # the child reached through e.iota is entered through e.tau, so it has
    # only two lifts of e.tau
    with pytest.raises(ValidationError, match="not a child step"):
        gt.TreePatch(system, frozenset({(), (i0,), (i0, t2)}))
    gt.TreePatch(system, frozenset({(), (i0,), (i0, t1)}))


def test_patch_to_dot_deterministic(loop33: System):
    d1 = gt.patch_to_dot(loop33.t0)
    d2 = gt.patch_to_dot(loop33.t0)
    assert d1 == d2
    assert "graph patch {" in d1
    assert "type 1" in d1 and "type 2" in d1


def test_caret_table_json(loop33: System):
    data = loop33.table.to_json_dict()
    assert data["M"] == [[3, 2], [2, 3]]
    assert data["I"] == [1, 1]
    assert data["carets"][0]["terminal_leaves"] == {"e.iota": 3, "e.tau": 2}


def assert_node_form(t):
    """The node-set form of a patch: its interior is the set of nodes with
    a child among the nodes, and each of those has all its children."""
    parents = {a[:-1] for a in t.nodes if a}
    assert parents == t.interior
    for p in parents:
        assert {p + (s,) for s in t.system.children[t.system.entry_of(p)]} <= t.nodes


def assert_node_set_oracle(a, b):
    """Interior-set operations agree with set operations on node sets."""
    assert gt.tree_union(a, b).nodes == a.nodes | b.nodes
    assert gt.tree_intersection(a, b).nodes == a.nodes & b.nodes
    assert a.contains(b) == (b.nodes <= a.nodes)
    assert b.contains(a) == (a.nodes <= b.nodes)


def test_unions_closed_on_random_systems():
    rng = random.Random(31337)
    for _ in range(10):
        g = random_gog(rng, max_vertices=3, min_degree_two=True)
        sys = make_system(g)
        trees = gt.enumerate_admissible(sys.g, sys.gs, sys.t0, 2, max_trees=5000)
        sample = trees if len(trees) <= 12 else rng.sample(trees, 12)
        for t in sample:
            assert_node_form(t)
        for t1, t2 in itertools.combinations(sample, 2):
            assert gt.tree_union(t1, t2).is_admissible()
            assert gt.tree_intersection(t1, t2).is_admissible()
            assert_node_set_oracle(t1, t2)


def test_node_set_oracle_on_loop33_pairs(loop33: System):
    rng = random.Random(2408)
    trees = gt.enumerate_admissible(loop33.g, loop33.gs, loop33.t0, 3)
    for t in trees:
        assert_node_form(t)
    for _ in range(400):
        assert_node_set_oracle(*rng.sample(trees, 2))


def node_tuple_key(t):
    """The canonical order as first defined: size, then sorted node tuple."""
    return (len(t.nodes), tuple(sorted(t.nodes)))


def test_sort_key_matches_node_tuple_order(loop33: System, bs23_aug: System):
    rng = random.Random(1729)
    randoms = [make_system(random_gog(rng, max_vertices=3, min_degree_two=True)) for _ in range(20)]
    systems = [(loop33, 3), (bs23_aug, 3)] + [(sys, 2) for sys in randoms]
    ties = 0
    for sys, depth in systems:
        trees = gt.enumerate_admissible(sys.g, sys.gs, sys.t0, depth, max_trees=10_000)
        rng.shuffle(trees)
        assert sorted(trees, key=gt.TreePatch.sort_key) == sorted(trees, key=node_tuple_key)
        ties += len(trees) - len({t.size for t in trees})
    assert ties > 1000  # most trees share their size with another one
