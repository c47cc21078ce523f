import random

import pytest

import gogtool as gt
from gogtool.errors import GogSyntaxError, ValidationError
from gogtool.model import Edge, GraphOfGroups, HalfEdge

from conftest import DATA, random_gog


def test_parse_simple_loop():
    g = gt.parse_gog("vertex v\nedge e : v -> v index 3 3")
    assert g.vertices == ("v",)
    e = g.edge("e")
    assert e.is_loop and e.index_iota == 3 and e.index_tau == 3


def test_parse_bs23_indices():
    g = gt.parse_gog("vertex v\nedge e : v -> v index 2 3")
    assert g == gt.example_family("bs(2,3)")


def test_parse_unknown_vertex():
    with pytest.raises(ValidationError, match="unknown vertex 'w'"):
        gt.parse_gog("vertex v\nedge e : v -> w index 2 3")


def test_parse_syntax_error_position():
    with pytest.raises(GogSyntaxError) as exc:
        gt.parse_gog("vertex v\nedge e : v -> v index 2")
    assert exc.value.line == 2


def test_parse_bad_index_position():
    with pytest.raises(GogSyntaxError) as exc:
        gt.parse_gog("vertex v\nedge e : v -> v index 0 3")
    assert exc.value.line == 2 and exc.value.column > 1


def test_parse_rejects_duplicates_and_disconnected():
    with pytest.raises(ValidationError, match="duplicate vertex"):
        gt.parse_gog("vertex v\nvertex v")
    with pytest.raises(ValidationError, match="duplicate edge"):
        gt.parse_gog("vertex v\nedge e : v -> v index 1 1\nedge e : v -> v index 1 1")
    with pytest.raises(ValidationError, match="disconnected"):
        gt.parse_gog("vertex a\nvertex b\nvertex c\nedge e : a -> b index 2 2")


def test_parse_comments_and_gate_lines():
    doc = gt.parse_document(
        "# a file\nvertex v  # trailing\nedge e : v -> v index 2 3\ngate e.tau\norder v\n"
    )
    assert doc.gates == (HalfEdge("e", "tau"),)
    assert doc.order == ("v",)


def test_gate_line_unknown_edge():
    with pytest.raises(ValidationError, match="unknown edge"):
        gt.parse_document("vertex v\nedge e : v -> v index 2 3\ngate f.tau\n")


def test_order_line_must_cover_vertices():
    with pytest.raises(ValidationError, match="order line"):
        gt.parse_document("vertex v\nvertex w\nedge e : v -> w index 2 2\norder v\n")


def test_roundtrip_bundled_files():
    for path in sorted(DATA.glob("*.gog")):
        doc = gt.parse_document(path.read_text())
        text = gt.serialize_gog(doc.graph, doc.gates, doc.order)
        doc2 = gt.parse_document(text)
        assert doc2.graph == doc.graph
        assert doc2.gates == doc.gates
        assert gt.serialize_gog(doc2.graph, doc2.gates, doc2.order) == text


def test_roundtrip_random_graphs():
    rng = random.Random(20240)
    for _ in range(50):
        g = random_gog(rng)
        text = gt.serialize_gog(g)
        assert gt.parse_gog(text) == g
        assert gt.serialize_gog(gt.parse_gog(text)) == text


def test_tree_degrees_examples():
    assert gt.tree_degrees(gt.example_family("bs(2,3)"))["v"] == 5
    rep = gt.tree_degrees(gt.example_family("amalgam(3,3)"))
    assert rep == {"v": 3, "w": 3}
    assert gt.tree_degrees(gt.augment(gt.example_family("bs(2,3)")))["v"] == 15


def test_augment_examples():
    g = gt.augment(gt.example_family("bs(2,3)"))
    e = g.edge("e")
    assert (e.index_iota, e.index_tau) == (6, 9)
    z = gt.augment(gt.example_family("z_line"))
    assert (z.edge("e").index_iota, z.edge("e").index_tau) == (3, 3)
    twice = gt.augment(gt.augment(gt.example_family("bs(2,3)")))
    assert (twice.edge("e").index_iota, twice.edge("e").index_tau) == (18, 27)


def test_augment_triples_degrees_property():
    rng = random.Random(7)
    for _ in range(25):
        g = random_gog(rng)
        d0 = gt.tree_degrees(g)
        d1 = gt.tree_degrees(gt.augment(g))
        assert d1 == {v: 3 * d for v, d in d0.items()}


def test_glue_bs23_with_itself():
    g = gt.example_family("bs(2,3)")
    out = gt.glue(g, "v", g, "v", 2, 2)
    assert len(out.vertices) == 2
    assert len(out.edges) == 3
    # pre-existing indices survive
    assert {(e.index_iota, e.index_tau) for e in out.edges} == {(2, 3), (2, 2)}


def test_glue_errors():
    g = gt.example_family("bs(2,3)")
    with pytest.raises(ValidationError):
        gt.glue(g, "nope", g, "v", 1, 1)
    with pytest.raises(ValidationError):
        gt.glue(g, "v", g, "v", 0, 1)


def test_glue_result_roundtrips():
    g = gt.example_family("bs(2,3)")
    out = gt.glue(g, "v", g, "v", 2, 2)
    assert gt.parse_gog(gt.serialize_gog(out)) == out


def test_example_family():
    bs = gt.example_family("bs(2,3)")
    assert (bs.edge("e").index_iota, bs.edge("e").index_tau) == (2, 3)
    assert gt.example_family("bs(-2,3)").edge("e").index_iota == 2
    assert gt.example_family("z_line") == gt.example_family("loop(1,1)")
    am = gt.example_family("amalgam(3,3)")
    assert len(am.vertices) == 2 and len(am.edges) == 1
    with pytest.raises(ValidationError):
        gt.example_family("bs(0,3)")
    with pytest.raises(ValidationError):
        gt.example_family("loop(0,1)")
    with pytest.raises(ValidationError):
        gt.example_family("frobnicate(1,1)")
    assert set(gt.EXAMPLE_NOTES) >= {"bs", "loop", "amalgam", "z_line"}


def test_halfedge_basics():
    h = HalfEdge("e", "iota")
    assert h.opposite() == HalfEdge("e", "tau")
    assert h.opposite().opposite() == h
    assert str(h) == "e.iota"
    assert gt.parse_halfedge("e.tau") == HalfEdge("e", "tau")
    with pytest.raises(ValidationError):
        gt.parse_halfedge("e")
    with pytest.raises(ValidationError):
        HalfEdge("e", "middle")


def test_graph_is_immutable_value():
    g = gt.example_family("loop(3,3)")
    g2 = gt.parse_gog(gt.serialize_gog(g))
    assert g == g2 and hash(g) == hash(g2)
    with pytest.raises(Exception):
        g.vertices = ()


def test_loop_halfedges_distinct():
    g = gt.example_family("loop(3,3)")
    hs = g.halfedges_at("v")
    assert len(hs) == 2 and hs[0] != hs[1]
    assert {g.index(h) for h in hs} == {3}


def test_index_validation():
    with pytest.raises(ValidationError):
        Edge("e", "v", "v", 1, 0)
    with pytest.raises(ValidationError):
        GraphOfGroups((), ())
