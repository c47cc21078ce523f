import hashlib
import json
import os
import re
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import gogtool as gt
from gogtool import cli, simplicial, stein_farley
from gogtool.cli import main
from gogtool.stein_farley import DescendingLink

from conftest import DATA

SRC = DATA.parent / "src"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_ok(capsys):
    code, out, _ = run(capsys, "validate", str(DATA / "bs23.gog"))
    assert code == 0
    data = json.loads(out)
    assert data["valid"] and data["tree_degrees"] == {"v": 5}


def test_validate_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.gog"
    bad.write_text("vertex v\nedge e : v -> w index 2 3\n")
    code, _, err = run(capsys, "validate", str(bad))
    assert code == 1
    assert "unknown vertex" in err


def test_degrees(capsys):
    code, out, _ = run(capsys, "degrees", str(DATA / "amalgam33.gog"))
    assert code == 0
    assert json.loads(out) == {"v": 3, "w": 3}


def test_augment_matches_bundled_file(capsys):
    code, out, _ = run(capsys, "augment", str(DATA / "bs23.gog"))
    assert code == 0
    assert "edge e : v -> v index 6 9" in out


def test_glue(capsys):
    code, out, _ = run(
        capsys, "glue", str(DATA / "bs23.gog"), "v", str(DATA / "bs23.gog"), "v", "2", "2"
    )
    assert code == 0
    assert out.count("vertex") == 2
    assert out.count("edge") == 3


def test_gates_default_admissible(capsys):
    code, out, _ = run(capsys, "gates", str(DATA / "loop33.gog"), "--default-gates")
    assert code == 0
    data = json.loads(out)
    assert data["admissible"] and data["gates"] == ["e.iota", "e.tau"]


def test_gates_explicit_inadmissible(capsys):
    code, out, _ = run(capsys, "gates", str(DATA / "loop33.gog"), "--gates", "e.iota")
    assert code == 1
    data = json.loads(out)
    assert not data["admissible"]
    assert data["witness_cycle"] == ["e.tau"]
    assert data["escape_ray"] == ["e.iota", "e.tau"]


def test_carets_bs23_aug(capsys):
    code, out, _ = run(capsys, "carets", str(DATA / "bs23_aug.gog"), "--default-gates")
    assert code == 0
    data = json.loads(out)
    assert data["M"] == [[9, 8], [5, 6]]
    assert data["I"] == [1, 1]


def test_viral_z_line_fails(capsys):
    code, out, _ = run(capsys, "viral", str(DATA / "z_line.gog"))
    assert code == 1
    data = json.loads(out)
    assert not data["passed"]
    assert "M_11 = 1" in data["reasons"]


def test_viral_loop33_passes(capsys):
    code, out, _ = run(capsys, "viral", str(DATA / "loop33.gog"))
    assert code == 0
    assert json.loads(out)["passed"]


def test_enumerate(capsys):
    code, out, _ = run(
        capsys, "enumerate", str(DATA / "loop33.gog"), "--max-expansions", "1"
    )
    assert code == 0
    data = json.loads(out)
    assert data["total"] == 7
    assert data["by_height"] == {"6": 1, "10": 6}


def test_enumerate_output_pinned(capsys):
    # the row order comes from TreePatch.sort_key; any change shows here
    code, out, _ = run(
        capsys, "enumerate", str(DATA / "loop33.gog"), "--max-expansions", "2"
    )
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "aba294337bee1adcf403c53fd15dd9304d8c1548ea245cf23e53b755a3153393"
    )


def test_enumerate_bs23_aug_depth3_pinned(capsys, tmp_path):
    # the largest enumerate artifact a bench job writes (8,031 rows)
    code, _, _ = run(
        capsys, "--out", str(tmp_path), "enumerate", str(DATA / "bs23_aug.gog"),
        "--max-expansions", "3",
    )
    assert code == 0
    assert hashlib.sha256((tmp_path / "enumerate.json").read_bytes()).hexdigest() == (
        "109638f13b7bc932d159f2acb9608af544b7cdcbd80185b807765f4336dd142f"
    )


@pytest.mark.parametrize(
    "argv,digest",
    [
        (
            ("loop33.gog", "--max-expansions", "1"),
            "0074fec510c9707b1577eb31fab96b5e8cc20dbb711b762233cb752345330aa8",
        ),
        (
            ("amalgam33.gog", "--root", "w", "--max-expansions", "1"),
            "109f0804cceac27fb0bab9053c45acdb8c24496610b3f829ce8a961905e8b9bd",
        ),
    ],
)
def test_enumerate_dot_pinned(capsys, argv, digest):
    # patch_to_dot decodes step numbers into edge labels and lifts
    code, out, _ = run(capsys, "enumerate", str(DATA / argv[0]), *argv[1:], "--dot")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_sf_heights(capsys):
    code, out, _ = run(capsys, "sf", str(DATA / "loop33.gog"), "--height", "10")
    assert code == 0
    assert json.loads(out)["vertices"] == [{"interior": 2, "leaves": [5, 5]}]
    code, out, _ = run(capsys, "sf", str(DATA / "loop33.gog"), "--height", "7")
    assert json.loads(out)["vertices"] == []


def test_desclink_with_oracle(capsys, tmp_path):
    code, out, _ = run(
        capsys,
        "--out",
        str(tmp_path),
        "desclink",
        str(DATA / "loop33.gog"),
        "--height",
        "10",
        "--oracle",
    )
    assert code == 0
    assert (tmp_path / "desclink.json").exists()
    assert (tmp_path / "desclink.csv").exists()
    assert (tmp_path / "link_h10_0.json").exists()
    summary = json.loads((tmp_path / "desclink.json").read_text())
    assert summary["links"][0]["oracle_agrees"]
    assert summary["links"][0]["f_vector"] == [200]
    csv = (tmp_path / "desclink.csv").read_text().splitlines()
    assert csv[0].startswith("height,vertices,edges")
    assert csv[1].startswith("10,200,0,")


@pytest.mark.parametrize(
    "argv,digests",
    [
        (
            ("loop33.gog", "--height", "14"),
            {
                "desclink.csv": "1269c8baaf922c5a8c7bc8e895a94ae05f8bf6838c72e097d25f533b872041c6",
                "desclink.json": "c07e6e4f1524e8e66c33483c9ebd2d56437d7afc3804c14b611d7068fbb07f2c",
                "link_h14_0.json": "061af426616988fa2354aa8ae5e2f67598c421d7dc148286615a23682cc41c2c",
            },
        ),
        (
            ("amalgam33.gog", "--height", "9"),
            {
                "desclink.csv": "5a36a31ac2d27ce07123c966139bb6bd910ab1b9b11e2333d6a4cdce1e3859fa",
                "desclink.json": "6ac5aa8d64508cf049920804a4f42d3383571c92e83331113bdc0d3732cc8d72",
                "link_h9_0.json": "07115c1a880bd3fa94bc770effe2db1c20e20803ead5d1a2840c27f1d9108a34",
            },
        ),
    ],
)
def test_desclink_out_pinned(capsys, tmp_path, argv, digests):
    code, _, _ = run(
        capsys, "--out", str(tmp_path), "desclink", str(DATA / argv[0]), *argv[1:], "--m-max", "1"
    )
    assert code == 0
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()}
    assert got == digests


def test_amalgam_h12_link_artifact_pinned(amalgam33):
    # the one bundled link whose maximal faces are triangles; `desclink`
    # stops at the homology cap there, so the artifact is rendered directly
    (x,) = gt.sf_vertices_at_height(12, amalgam33.table, amalgam33.base)
    link = gt.descending_link(x, amalgam33.table, amalgam33.base)
    assert hashlib.sha256(cli._dumps(link.to_json_dict()).encode()).hexdigest() == (
        "d5099f9610ae0afd93ea7dab8c3e998d527915455ca765a8bd462e4893ee9417"
    )


@pytest.mark.parametrize(
    "argv,digest",
    [
        (
            ("loop33.gog", "--height", "14", "--m-max", "1"),
            "c76963c00c5563d11737cdfddaadd0b245e39af242098ed20ed84a0d6a2c5b8b",
        ),
        (
            ("amalgam33.gog", "--height", "9", "--m-max", "1"),
            "a202f372d40c2dd8923a2e131347d3001abb4e58ecfd854fbef41c67efdaf633",
        ),
    ],
)
def test_desclink_without_out_builds_no_link_json(capsys, monkeypatch, tmp_path, argv, digest):
    calls = 0
    to_json = DescendingLink.to_json_dict

    def counted(self):
        nonlocal calls
        calls += 1
        return to_json(self)

    monkeypatch.setattr(DescendingLink, "to_json_dict", counted)
    code, out, _ = run(capsys, "desclink", str(DATA / argv[0]), *argv[1:])
    assert code == 0
    assert calls == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest
    run(capsys, "--out", str(tmp_path), "desclink", str(DATA / argv[0]), *argv[1:])
    assert calls == 1  # the counter counts


def test_desclink_non_viral_points_to_viral(capsys):
    # the CLI builds the fast-path link first, with --oracle too
    code, _, err = run(capsys, "desclink", str(DATA / "bs23.gog"), "--height", "5", "--oracle")
    assert code == 1
    assert "fast-path descending link needs the viral expansion property" in err
    assert "`gogtool viral`" in err and "use the oracle" not in err


def test_homology_roundtrip(capsys, tmp_path):
    cx = tmp_path / "complex.json"
    cx.write_text(json.dumps({"maximal_faces": [[0, 1], [1, 2], [0, 2]]}))
    code, out, _ = run(capsys, "homology", "--in", str(cx))
    assert code == 0
    assert json.loads(out)["betti"] == [1, 1]


def test_lemma_check(capsys, tmp_path):
    cx = tmp_path / "complex.json"
    cx.write_text(json.dumps({"maximal_faces": [[0, 1], [1, 2], [0, 2]]}))
    code, out, _ = run(
        capsys, "lemma-check", "--in", str(cx), "--sigma", "0,1,2", "-m", "1", "-k", "1"
    )
    assert code == 0
    data = json.loads(out)
    assert data["bound"] == 0 and data["failed_hypothesis"] is None


def test_threshold(capsys):
    code, out, _ = run(capsys, "threshold", str(DATA / "loop33.gog"), "-m", "0")
    assert code == 0
    data = json.loads(out)
    assert data["beta"] == 5 and data["C"] == 16
    assert data["r"] == 2 * (data["alpha"] + 16)
    assert any("beyond construction caps" in n for n in data["notes"])


def test_random_complex_deterministic(capsys):
    code, out1, _ = run(
        capsys, "random-complex", "--seed", "3", "--vertices", "8", "--density", "0.5"
    )
    code2, out2, _ = run(
        capsys, "random-complex", "--seed", "3", "--vertices", "8", "--density", "0.5"
    )
    assert code == 0 and code2 == 0 and out1 == out2


def test_threshold_small_box_is_lower_bound(capsys):
    # box 1 cuts off part of an l1-layer that is otherwise dominated
    code, out, _ = run(
        capsys, "threshold", str(DATA / "loop33.gog"), "-m", "0", "--dickson-box", "1"
    )
    assert code == 0
    assert json.loads(out)["alpha_is_lower_bound_only"] is True


# sha256 of stdout for random-complex, homology --in and lemma-check
COMPLEX_PIPELINES = [
    (
        ("--seed", "1", "--vertices", "9", "--density", "0.6", "--ground", "3", "--drop", "0.2"),
        ("--sigma", "0,1,2", "-m", "2", "-k", "1"),
        (
            "1c48850b1cb91d14d2e820693a2a50557c2b1a6f47bd51a1d32dd46e42b646f4",
            "3593f5b043f6b687373208978a55cafca660d8e4e7e30a7be106d5ff5d28f494",
            "d1b106a96b40c42f448cee9cfa02f3e9c59b0928e940debe92dfd6659446c134",
        ),
    ),
    (
        ("--seed", "3", "--vertices", "8", "--density", "0.65", "--ground", "4"),
        ("--sigma", "0,1,2,3", "-m", "1", "-k", "1"),
        (
            "6b499ab5ee7d0a9c32af199cd7a135b047ee2f9128fa8b1d0327c6a75b2522b6",
            "ef9a7a5e768f6d83a13cee74cc38be921f5496957fcb99c2da699af099aa5336",
            "1e55df8891636d92ca4a9e3729217cfe6f4a1ae2eff5ccb47fdd68f1bc45babc",
        ),
    ),
    (
        ("--seed", "6", "--vertices", "8", "--density", "0.65", "--ground", "4"),
        ("--sigma", "0,1,2,3", "-m", "1", "-k", "1"),
        (
            "965bd2f52a1ee1eed7845ac5836a6bdbaccd632b53793415c0feecf55344e22d",
            "ef9a7a5e768f6d83a13cee74cc38be921f5496957fcb99c2da699af099aa5336",
            "37dd2541827b98ddcd4ce8eec6b005ef26382dc49e50a1f2f0ba3ca995e7066b",
        ),
    ),
]


@pytest.mark.parametrize(
    "complex_args,lemma_args,digests", COMPLEX_PIPELINES, ids=["flag", "bound", "join"]
)
def test_complex_pipeline_outputs_pinned(capsys, tmp_path, complex_args, lemma_args, digests):
    cx = tmp_path / "complex.json"
    _, text, _ = run(capsys, "random-complex", *complex_args)
    cx.write_text(text)
    outputs = [
        text,
        run(capsys, "homology", "--in", str(cx))[1],
        run(capsys, "lemma-check", "--in", str(cx), *lemma_args)[1],
    ]
    assert [hashlib.sha256(o.encode()).hexdigest() for o in outputs] == list(digests)


def test_artifacts_written_to_out(capsys, tmp_path):
    code, out, _ = run(capsys, "--out", str(tmp_path), "carets", str(DATA / "loop33.gog"))
    assert code == 0
    disk = (tmp_path / "carets.json").read_text()
    assert disk == out


def test_unwritable_out_exits_one(capsys, tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("")
    (tmp_path / "dir" / "validate.json").mkdir(parents=True)
    cases = {
        blocker: blocker,  # --out names a file
        blocker / "sub": blocker / "sub",  # --out lies under a file
        tmp_path / "dir": tmp_path / "dir" / "validate.json",  # the artifact is a directory
    }
    for out, failed in cases.items():
        code, stdout, err = run(capsys, "--out", str(out), "validate", str(DATA / "loop33.gog"))
        assert code == 1
        assert stdout == ""
        assert err.startswith(f"error: cannot write {failed}: ") and err.count("\n") == 1, err


def _stdlib_dumps(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize(
    "obj",
    [
        [[1], [2, [3]]],
        [[1], [], [2]],
        [[]],
        [[True]],
        [[1.0]],
        [["a"]],
        [[[1]]],
        [[-1, 10**40]],
        {"a": [[1, 2], [3]], "b": [["],["]], "c": {"d": [[0]]}},
        [(1, 2), (3,)],
        {1: [2], 2: {"x": None}},
        [[], {}, "", 0, -0.0, False],
    ],
    ids=repr,
)
def test_dumps_matches_stdlib_on_edge_cases(obj):
    assert cli._dumps(obj) == _stdlib_dumps(obj)


# a fixed alphabet: escapes, JSON punctuation, non-ASCII and astral characters
_STRINGS = st.one_of(
    st.text(st.sampled_from('az09-,[]"\\\n\t\x00\x7f\xe9\u2028\u20ac\U0001f600'), max_size=8),
    st.sampled_from(["],[", ",", "\n", "[[1]]", "[]", "-1"]),
)
_SCALARS = st.one_of(
    st.integers(),
    st.integers(min_value=-(10**40), max_value=10**40),
    st.booleans(),
    st.none(),
    st.floats(),
    _STRINGS,
)
_INT_ROWS = st.lists(st.lists(st.integers(min_value=-(10**20), max_value=10**20), max_size=4))


def _containers(children):
    return st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(_STRINGS, children, max_size=4),
        st.dictionaries(st.integers(), children, max_size=3),
        st.dictionaries(st.floats(allow_nan=False), children, max_size=3),
        st.dictionaries(st.booleans(), children, max_size=2),
        st.dictionaries(st.none(), children, max_size=1),
        _INT_ROWS,
        st.lists(st.lists(st.one_of(st.integers(), st.booleans()), max_size=3), max_size=3),
        st.lists(st.lists(children, max_size=3), max_size=3),
    )


@settings(
    derandomize=True,
    database=None,
    deadline=None,
    max_examples=200,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(st.recursive(_SCALARS, _containers, max_leaves=30))
def test_dumps_matches_stdlib(obj):
    assert cli._dumps(obj) == _stdlib_dumps(obj)


def test_determinism_across_runs(capsys):
    _, out1, _ = run(capsys, "carets", str(DATA / "triple.gog"), "--default-gates")
    _, out2, _ = run(capsys, "carets", str(DATA / "triple.gog"), "--default-gates")
    assert out1 == out2


def test_degenerate_graph_exits_one(tmp_path, capsys):
    bad = tmp_path / "thin.gog"
    bad.write_text("vertex v\nvertex w\nedge e : v -> w index 1 2\n")
    code, _, err = run(capsys, "viral", str(bad))
    assert code == 1
    assert "tree degree" in err


def test_cap_exceeded_exits_two(capsys):
    code, _, err = run(
        capsys,
        "desclink",
        str(DATA / "loop33.gog"),
        "--height",
        "14",
        "--max-link-vertices",
        "10",
    )
    assert code == 2
    assert "cap exceeded" in err


def test_out_of_memory_exits_two(capsys, monkeypatch):
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(cli, "descending_link", exhausted)
    code, out, err = run(capsys, "desclink", str(DATA / "loop33.gog"), "--height", "14")
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("cap exceeded: out of memory")
    assert "--max-link-vertices" in err and "--height" in err
    assert "Traceback" not in err


def test_homology_cell_cap_exits_two(capsys, monkeypatch):
    # the height-12 link's d_2 has 17,325 nonzeros, all reduced by unit pivots
    argv = ("desclink", str(DATA / "amalgam33.gog"), "--height", "12")
    code, out, _ = run(capsys, *argv)
    assert code == 0
    link = json.loads(out.split("\n", 1)[1].split("# artifact:")[0])["links"][0]
    assert link["f_vector"] == [495, 17325, 5775]
    assert link["betti"] == [1, 11056]
    # below that count the cap stops the run before any matrix is built
    monkeypatch.setattr(simplicial, "HOMOLOGY_CELL_CAP", 17_324)
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("cap exceeded:")
    assert "d_2 has 17325 nonzeros" in err


def test_homology_cell_cap_refuses_before_building(capsys, monkeypatch):
    # the height-15 link has f = (1365, 225225, 2627625): its d_2 is over
    # the cap, which the predicted f-vector shows before any face is built
    built = 0
    build = stein_farley._link

    def counted(*args):
        nonlocal built
        built += 1
        return build(*args)

    monkeypatch.setattr(stein_farley, "_link", counted)
    code, out, err = run(capsys, "desclink", str(DATA / "amalgam33.gog"), "--height", "15")
    assert code == 2
    assert out == ""
    assert err == (
        "cap exceeded: homology cell budget exceeded: d_2 has 7882875 nonzeros "
        "(2627625 columns of 3) > cap 4000000; f-vector (1365, 225225, 2627625)\n"
    )
    assert built == 0
    # with both caps crossed, the vertex cap speaks
    argv = ("desclink", str(DATA / "amalgam33.gog"), "--height", "15", "--max-link-vertices", "1000")
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert err == (
        "cap exceeded: descending link would have more than 1000 vertices; "
        "predicted f-vector (1365, 225225, 2627625)\n"
    )
    assert built == 0
    # under the caps the link is built, once
    code, _, _ = run(capsys, "desclink", str(DATA / "amalgam33.gog"), "--height", "9")
    assert code == 0 and built == 1


def test_desclink_artifacts_byte_identical(tmp_path):
    # separate processes, so nothing cached or timed carries over
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    for name in ("a", "b"):
        subprocess.run(
            [sys.executable, "-m", "gogtool.cli", "--out", str(tmp_path / name),
             "desclink", str(DATA / "amalgam33.gog"), "--height", "9", "--m-max", "1"],
            env=env, check=True, stdout=subprocess.DEVNULL,
        )
    files = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert "desclink.json" in files
    assert files == sorted(p.name for p in (tmp_path / "b").iterdir())
    for name in files:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


LOOP = str(DATA / "loop33.gog")

# each input must exit 1 with a one-line "error:" message
BAD_INPUTS = {
    "missing file": ["validate", "{tmp}/nope.gog"],
    "malformed json": ["homology", "--in", "{tmp}/malformed.json"],
    "mixed labels, homology": ["homology", "--in", "{tmp}/mixed.json"],
    "mixed labels, lemma-check": [
        "lemma-check", "--in", "{tmp}/mixed.json", "--sigma", "0", "-m", "1", "-k", "1",
    ],
    "negative height": ["desclink", LOOP, "--height", "-5"],
    "negative m-max": ["desclink", LOOP, "--height", "10", "--m-max", "-1"],
    "negative max-expansions": ["enumerate", LOOP, "--max-expansions", "-1"],
    "negative max-trees": ["enumerate", LOOP, "--max-expansions", "1", "--max-trees", "-1"],
    "negative max-link-vertices": [
        "desclink", LOOP, "--height", "10", "--max-link-vertices", "-1",
    ],
    "negative max-dim": ["homology", "--in", "{tmp}/triangle.json", "--max-dim", "-1"],
    "str sigma on int labels": [
        "lemma-check", "--in", "{tmp}/triangle.json", "--sigma", "a,1", "-m", "2", "-k", "1",
    ],
    "dickson box 0": ["threshold", LOOP, "-m", "0", "--dickson-box", "0"],
    "dickson box 0, desclink": ["desclink", LOOP, "--height", "10", "--dickson-box", "0"],
    "negative repair-budget": ["viral", str(DATA / "triple.gog"), "--repair-budget", "-1"],
    "non-viral, desclink": ["desclink", str(DATA / "bs23.gog"), "--height", "5"],
    "non-viral, desclink --oracle": ["desclink", str(DATA / "bs23.gog"), "--height", "5", "--oracle"],
    "flat carets, desclink": ["desclink", str(DATA / "z_line.gog"), "--height", "2"],
    "flat carets, sf": ["sf", str(DATA / "z_line.gog"), "--height", "2"],
    "negative vertices": [
        "random-complex", "--seed", "1", "--vertices", "-3", "--density", "0.5",
    ],
    "empty gates": ["carets", LOOP, "--gates="],
    "empty order": ["carets", LOOP, "--default-gates", "--order="],
    "empty root": ["viral", str(DATA / "amalgam33.gog"), "--root="],
}


@pytest.mark.parametrize("argv", BAD_INPUTS.values(), ids=BAD_INPUTS.keys())
def test_bad_input_exits_one(capsys, tmp_path, argv):
    (tmp_path / "malformed.json").write_text('{"maximal_faces": [[0, 1]')
    (tmp_path / "mixed.json").write_text(json.dumps({"maximal_faces": [[0, "a"], [1, 2]]}))
    (tmp_path / "triangle.json").write_text(json.dumps({"maximal_faces": [[0, 1, 2]]}))
    code, out, err = run(capsys, *(a.format(tmp=tmp_path) for a in argv))
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1, err
    # the message points at CLI steps, never at a library function
    assert not set(re.findall(r"\w+", err)) & {n for n in gt.__all__ if "_" in n}, err
