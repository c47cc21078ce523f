import enum
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
from gogtool.count_algebra import allowed_multisets
from gogtool.stein_farley import DescendingLink

from conftest import DATA, assert_spec_holds

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


@pytest.mark.parametrize(
    "argv,code,digest",
    [
        (("carets", "amalgam33.gog"), 0, "e14353def9eb879049b91e0c1c38b8277cdf998f29abadf5195d7f599cb52d1a"),
        (("carets", "bs23.gog"), 0, "bcaec7cdb5b2fe061c2e0058fb5920012662b41bff6f420bd042cf8aba81701c"),
        (("carets", "bs23_aug.gog"), 0, "f1c252f03979c276845db04143525fb34fd9c440817937f81ea5753826b2da06"),
        (("carets", "loop33.gog"), 0, "cc65b3c2a3fdb4d9156a319ff6cd3da88d6b33e96828fe00f5b051970c113ea1"),
        (("carets", "triple.gog"), 0, "afba87b4c2520c01d20d451bd35af1533fc01220cf4b5099719254ffd663f330"),
        (("carets", "z_line.gog"), 0, "15f88dda566bd79d9d3a4ad0900a9425c1b6231ab65bc0d9fb6c08e80bac7d33"),
        (("viral", "amalgam33.gog"), 0, "1aebcb8495a8b612f2cd89b2e0aa6ae9ceb596898b1fe64a3b75ff48e3082428"),
        (("viral", "bs23.gog"), 1, "7c2037842d5d8bead5e863ae8f92961db23afe0e19e729de50ce8f603986de62"),
        (("viral", "bs23_aug.gog"), 0, "bbccb9fac1da3662d51884d7aa10eabb3e9d62b70a50706f8f3fd815691daf53"),
        (("viral", "loop33.gog"), 0, "ff587b9f2c04cc46b4fbd1f5411f052f0ec0bad7b9e0508f54cf637c1e38b071"),
        # the one bundled run that repairs its base tree
        (("viral", "triple.gog"), 1, "17b8787dac6e75c6441a8a1e0382f155681adb90fb211f23aed8798faadb5dcc"),
        (("viral", "z_line.gog"), 1, "0ab7222481d012462958b74fc9a941b09801d80ba25dc606ac456aff5032324f"),
        (
            ("viral", "triple.gog", "--repair-budget", "0"),
            1,
            "5a9d9326ce02ffdd08571d4f0a44c838909d7818ef09dbc754f5b07a75fac3a6",
        ),
        # triple.gog's thresholds take seconds even at m = 0
        (("threshold", "loop33.gog", "-m", "0"), 0, "08b9f57596202042b7282f63ba74932ead21c5f3ded47f2154b346c1174d6bb9"),
        (("threshold", "loop33.gog", "-m", "1"), 0, "6eef313f10eae07227254e91ff232c6f0b513b3f4deafcf079095fdb2887f824"),
        (("threshold", "amalgam33.gog", "-m", "0"), 0, "294014a18ee985dfbc8dbb044a487038543757e8cb92cd1875b1d7315b06c5bc"),
        (("threshold", "amalgam33.gog", "-m", "1"), 0, "6583b7011edb4e8d4ae009da7affd6068f2889d75a63cfdc195d1395aca00d71"),
        (("threshold", "bs23.gog", "-m", "0"), 0, "b40eb9de1dafe1df15065450f3f30010dd95c2688754137135ecbd442554029b"),
        (("threshold", "bs23.gog", "-m", "1"), 0, "f834b3717540c1e00a00125373ef1fe5ec55a0a5ece191ec6adee3cf5336009b"),
        (("threshold", "bs23_aug.gog", "-m", "0"), 0, "6f49be363664a3c3439a2507eb14c64bad4482d7484fa7deb43aae492f55fbcc"),
        (("threshold", "bs23_aug.gog", "-m", "1"), 0, "669c819f810a7c6fa652359ccdeec30ffd57b463fbbae83b7f7db727a9e12336"),
        (("threshold", "z_line.gog", "-m", "0"), 0, "18b52deadba44d00c0e8a273fdc59384e68d318b8449d9837f025ad46a03df07"),
        (("threshold", "z_line.gog", "-m", "1"), 0, "d8c075894a45f898be62bf5c04d1bd6ed987cb7c7320439529384fff602d9567"),
    ],
)
def test_carets_and_viral_pinned(capsys, argv, code, digest):
    got, out, _ = run(capsys, argv[0], str(DATA / argv[1]), *argv[2:])
    assert got == code
    assert hashlib.sha256(out.encode()).hexdigest() == digest


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


def test_amalgam_h12_oracle_agrees(capsys, tmp_path, amalgam33):
    # an expansion adds at least min(I) = 3 interior vertices, so the oracle
    # enumerates 3 expansions deep here, not 9, and stays under the tree cap
    (x,) = gt.sf_vertices_at_height(12, amalgam33.table, amalgam33.base)
    fast = gt.descending_link(x, amalgam33.table, amalgam33.base)
    oracle = gt.oracle_descending_link(x, amalgam33.g, amalgam33.gs, amalgam33.t0)
    assert fast.f_vector == (495, 17325, 5775)
    assert gt.link_difference(fast, oracle) is None
    assert_spec_holds(fast)
    assert_spec_holds(oracle)
    argv = ("--out", str(tmp_path), "desclink", str(DATA / "amalgam33.gog"), "--height", "12", "--oracle")
    code, _, err = run(capsys, *argv)
    assert code == 0, err
    (link,) = json.loads((tmp_path / "desclink.json").read_text())["links"]
    assert link["oracle_agrees"] is True


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


def test_desclink_oracle_disagreement_exits_three(capsys, monkeypatch):
    # an oracle that loses the greatest allowed multiset, a maximal one,
    # so its spec stays downward closed
    def short_oracle(x, g, gs, t0, max_trees):
        table = gt.caret_table(g, gs)
        allowed = allowed_multisets(x, table, t0.counts())
        return stein_farley.LinkSpec(x.leaves, table.M, allowed - {max(allowed)}).build(x)

    monkeypatch.setattr(cli, "oracle_descending_link", short_oracle)
    code, out, err = run(capsys, "desclink", str(DATA / "loop33.gog"), "--height", "10", "--oracle")
    assert code == 3 and out == ""
    assert err == (
        "internal invariant violated (bug): fast-path link disagrees with the oracle at "
        "CountVector(interior=2, leaves=(5, 5)): caret-type multiset (1, 0) only in first link\n"
    )


def test_desclink_planted_ground_lemma(capsys, tmp_path):
    # the first class checked by the lemma at or above threshold: on the
    # bundled systems a planted ground exists only on links over the
    # lemma's vertex cap
    path = tmp_path / "amalgam24.gog"
    path.write_text(gt.serialize_gog(gt.example_family("amalgam(2,4)")))
    code, out, _ = run(capsys, "desclink", str(path), "--height", "12")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "b5b2bfec5602cce3968b37cf1a3d32ade9b54dea279a73a147239dc1a2b39b6c"
    )
    (link,) = json.loads(out.split("# artifact: desclink.csv")[0].split("\n", 1)[1])["links"]
    assert link["x"] == {"interior": 21, "leaves": [12]}
    assert link["f_vector"] == [220, 9240, 61600, 15400] and link["betti"] == [1, 0]
    (th,) = link["thresholds"]
    assert th["ground_check"] == "lemma checker bound 0 from planted ground"
    assert th["status"] == "m=0: height 12 at or above threshold r(0)=10"


def test_gog_gate_and_order_lines(capsys, tmp_path):
    # no bundled file has gate or order lines
    g = gt.parse_gog((DATA / "loop33.gog").read_text())
    gates = (gt.parse_halfedge("e.iota"), gt.parse_halfedge("e.tau"))
    path = tmp_path / "loop33_gated.gog"
    path.write_text(gt.serialize_gog(g, gates, ("v",)))
    assert path.read_text().endswith("gate e.iota\ngate e.tau\norder v\n")
    for command in ("carets", "gates"):
        assert run(capsys, command, str(path)) == run(capsys, command, str(DATA / "loop33.gog"))
    code, out, _ = run(capsys, "augment", str(path))
    assert code == 0
    assert out == "vertex v\nedge e : v -> v index 9 9\ngate e.iota\ngate e.tau\norder v\n"
    # a file gate resolves as --gates does
    path = tmp_path / "amalgam33_gated.gog"
    path.write_text((DATA / "amalgam33.gog").read_text() + "gate e.iota\n")
    for command in ("carets", "gates"):
        got = run(capsys, command, str(path))
        assert got[0] == 0
        assert got == run(capsys, command, str(DATA / "amalgam33.gog"), "--gates", "e.iota")


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
    (
        (
            "--seed", "5", "--vertices", "11", "--density", "0.65", "--ground", "3",
            "--drop", "0.3", "--max-dim", "2",
        ),
        ("--sigma", "0,1,2", "-m", "2", "-k", "1"),
        (
            "0557affb80bf00a1fe7828660257a0a2a426d2d2359c3920d32630a8ee7f4a7d",
            "07498d90b96f8e98e64b2a44ab96c6b734e2c5a4225b6b9d2e485b89045cc3de",
            "97dc338ab03999efa8896749477d630dd4d7e49d7a625ffa54a9660ea553ea56",
        ),
    ),
]


@pytest.mark.parametrize(
    "complex_args,lemma_args,digests", COMPLEX_PIPELINES, ids=["flag", "bound", "join", "drop-cap"]
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


class _Colour(enum.IntEnum):
    RED = 7


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
        ((1, 2), (3, 4)),
        [(1, 2), [3], []],
        [[], []],
        [[1, True]],
        [[1], [2.0]],
        [[1], ["1"]],
        [[1], [[2]]],
        [[10**40, -1], [0]],
        [[1, _Colour.RED]],
        {"%d": [[1, 2]], "a": {"%s": [[3]]}},
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
        # a link's faces and slots reach the renderer as tuples of tuples
        _INT_ROWS.map(lambda rows: tuple(map(tuple, rows))),
        st.lists(st.lists(st.one_of(st.integers(), st.booleans()), max_size=3), max_size=3),
        st.lists(st.lists(children, max_size=3), max_size=3),
        # lists that hold one object several times, as enumerate's rows do
        st.lists(children, min_size=1, max_size=3).flatmap(
            lambda items: st.lists(st.sampled_from(items), min_size=2, max_size=6)
        ),
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


def test_random_complex_cap_exits_two():
    # 4.5 M faces of a 24-clique up to size 10: stopped while the last grows
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    argv = ["random-complex", "--seed", "1", "--vertices", "24", "--density", "1"]
    cmd = [sys.executable, "-m", "gogtool.cli", *argv]
    done = subprocess.run(cmd, env=env, capture_output=True, text=True)
    assert done.returncode == 2 and done.stdout == ""
    assert done.stderr.startswith("cap exceeded: ") and done.stderr.count("\n") == 1
    assert "sizes 1..9 held 24, 276, 2024" in done.stderr


def test_tree_cap_says_how_far_it_got(capsys):
    # the depth being grown, and the trees each finished depth added
    loop = str(DATA / "loop33.gog")
    code, out, err = run(capsys, "enumerate", loop, "--max-expansions", "5", "--max-trees", "1000")
    assert (code, out) == (2, "")
    assert err == (
        "cap exceeded: enumeration exceeded the cap of 1000 trees while growing depth 4 "
        "(depths 0..3 held 1, 6, 45, 380 trees)\n"
    )
    code, out, err = run(capsys, "desclink", loop, "--height", "14", "--oracle", "--max-trees", "20")
    assert (code, out) == (2, "")
    assert err == (
        "cap exceeded: enumeration exceeded the cap of 20 trees while growing depth 2 "
        "(depths 0..1 held 1, 6 trees)\n"
    )


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
    build = stein_farley.LinkSpec.build

    def counted(*args):
        nonlocal built
        built += 1
        return build(*args)

    monkeypatch.setattr(stein_farley.LinkSpec, "build", counted)
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
    "missing height": ["desclink", LOOP],
    "non-integer height": ["desclink", LOOP, "--height", "x"],
    "unknown command": ["frobnicate", LOOP],
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


def test_usage_error_exit_codes():
    # argparse exits 2, the cap code, on a usage error; the process exits 1
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))

    def cli_process(*argv):
        cmd = [sys.executable, "-m", "gogtool.cli", *argv]
        return subprocess.run(cmd, env=env, capture_output=True, text=True)

    bad = cli_process("desclink", LOOP)
    assert bad.returncode == 1 and bad.stdout == ""
    assert bad.stderr == "error: gogtool desclink: the following arguments are required: --height\n"
    helped = cli_process("desclink", "--help")
    assert helped.returncode == 0 and helped.stderr == ""
    assert helped.stdout.startswith("usage: gogtool desclink")
