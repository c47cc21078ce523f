import hashlib
import json
import os
import subprocess
import sys

import pytest

from gogtool.cli import main

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


def test_artifacts_written_to_out(capsys, tmp_path):
    code, out, _ = run(capsys, "--out", str(tmp_path), "carets", str(DATA / "loop33.gog"))
    assert code == 0
    disk = (tmp_path / "carets.json").read_text()
    assert disk == out


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
    "negative vertices": [
        "random-complex", "--seed", "1", "--vertices", "-3", "--density", "0.5",
    ],
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
