import json
import subprocess
import sys
from fractions import Fraction as F

import pytest

from tropicon import cli
from tropicon.connectivity import build_hypergraph, connected_after_removal
from tropicon.fanjson import (
    fan_from_obj, fan_from_text, fan_to_obj, fan_to_text, format_rational,
    load_fan, parse_rational, save_fan,
)
from tropicon.matroid import Matroid, bergman_fine
from tropicon.polyhedral import validate_complex
from tropicon.ratlin import vec
from tropicon.tropical import cube_normal_fan, same_fan, two_planes_fan


class TestRationalStrings:
    def test_format(self):
        assert format_rational(F(3)) == "3"
        assert format_rational(F(-2, 5)) == "-2/5"

    def test_parse(self):
        assert parse_rational("3/4") == F(3, 4)
        assert parse_rational("-2") == F(-2)
        assert parse_rational(7) == F(7)
        with pytest.raises(ValueError):
            parse_rational(0.5)

    def test_round_trip(self):
        for x in (F(0), F(5), F(-3, 7), F(22, 6)):
            assert parse_rational(format_rational(x)) == x


class TestFanFileRoundTrip:
    @pytest.mark.parametrize("fan", [
        two_planes_fan(),
        cube_normal_fan(2),
        bergman_fine(Matroid.uniform(3, 4)),
    ], ids=["two-planes", "cube2", "bergman-u34"])
    def test_parse_print_identity(self, fan):
        text = fan_to_text(fan)
        parsed = fan_from_text(text)
        assert fan_to_text(parsed) == text
        assert same_fan(parsed, fan)
        assert validate_complex(parsed).valid

    def test_vertices_as_strings(self):
        c = hyperplane_section_fixture()
        text = fan_to_text(c)
        obj = json.loads(text)
        assert all(isinstance(x, str) for v in obj["vertices"] for x in v)
        assert same_fan(fan_from_text(text), c)

    def test_schema_keys(self):
        obj = fan_to_obj(two_planes_fan())
        assert list(obj) == ["ambient_dim", "rays", "vertices", "lineality",
                             "cells", "weights"]
        assert len(obj["cells"]) == len(obj["weights"]) == 12

    def test_missing_key_rejected(self):
        obj = fan_to_obj(two_planes_fan())
        del obj["weights"]
        with pytest.raises(ValueError, match="missing"):
            fan_from_obj(obj)

    def test_bad_cell_index_rejected(self):
        obj = fan_to_obj(two_planes_fan())
        obj["cells"][0]["r"] = [99]
        with pytest.raises(ValueError, match="outside"):
            fan_from_obj(obj)

    def test_save_and_load(self, tmp_path):
        path = tmp_path / "fan.json"
        save_fan(two_planes_fan(), str(path))
        assert same_fan(load_fan(str(path)), two_planes_fan())

    def test_golden_bergman_u23(self):
        golden = {
            "ambient_dim": 3,
            "rays": [[0, 0, 1], [0, 1, 0], [1, 0, 0]],
            "vertices": [],
            "lineality": [[1, 1, 1]],
            "cells": [{"v": [], "r": [0]}, {"v": [], "r": [1]},
                      {"v": [], "r": [2]}],
            "weights": [1, 1, 1],
        }
        text = fan_to_text(bergman_fine(Matroid.uniform(2, 3)))
        assert text == json.dumps(golden, indent=2) + "\n"


def hyperplane_section_fixture():
    from tropicon.polyhedral import AffineHyperplane
    from tropicon.tropical import hyperplane_section, standard_tropical_plane
    return hyperplane_section(standard_tropical_plane(),
                              AffineHyperplane(vec([1, 2, 4]), F(1))).section


def run_cli(args, capsys):
    code = cli.main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestCliGen:
    def test_two_planes_counts(self, tmp_path, capsys):
        path = tmp_path / "tp.json"
        code, _, _ = run_cli(["gen", "two-planes", "-o", str(path)], capsys)
        assert code == 0
        fan = load_fan(str(path))
        assert len(fan.ray_pool) == 7 and len(fan) == 12 and fan.ambient_dim == 5

    def test_bergman_uniform_counts(self, tmp_path, capsys):
        path = tmp_path / "b.json"
        code, _, _ = run_cli(["gen", "bergman-uniform", "3", "4", "-o", str(path)], capsys)
        assert code == 0
        fan = load_fan(str(path))
        assert len(fan.ray_pool) == 10 and len(fan) == 12 and fan.lineality_dim == 1

    def test_bergman_graphic(self, tmp_path, capsys):
        path = tmp_path / "k4.json"
        code, _, _ = run_cli(
            ["gen", "bergman-graphic", "0-1,0-2,0-3,1-2,1-3,2-3", "-o", str(path)],
            capsys)
        assert code == 0
        assert len(load_fan(str(path))) == 18

    def test_normal_fan_cube(self, capsys):
        code, out, _ = run_cli(["gen", "normal-fan-cube", "3"], capsys)
        assert code == 0
        assert len(fan_from_text(out)) == 8

    def test_normal_fan_from_vertices_file(self, tmp_path, capsys):
        vfile = tmp_path / "verts.json"
        vfile.write_text(json.dumps([["0", "0"], ["1", "0"], ["0", "1"]]))
        code, out, _ = run_cli(["gen", "normal-fan", str(vfile)], capsys)
        assert code == 0
        assert len(fan_from_text(out)) == 3

    def test_deterministic_bytes(self, capsys):
        _, out1, _ = run_cli(["gen", "two-planes"], capsys)
        _, out2, _ = run_cli(["gen", "two-planes"], capsys)
        assert out1 == out2

    def test_unknown_kind_exits_1(self, capsys):
        code, _, err = run_cli(["gen", "dodecahedron"], capsys)
        assert code == 1
        assert "unknown kind" in err


class TestCliCheck:
    def test_two_planes_k2_refuted(self, tmp_path, capsys):
        path = tmp_path / "tp.json"
        run_cli(["gen", "two-planes", "-o", str(path)], capsys)
        code, out, _ = run_cli(["check", str(path), "--k", "2", "--mincut"], capsys)
        assert code == 2
        cert = json.loads(out)
        assert cert["verdict"] is False
        assert len(cert["witness"]) == 1
        assert cert["mincut_size"] == 1
        fan = load_fan(str(path))
        witness_cell = fan.facet(cert["witness"][0])
        assert witness_cell.contains_point(vec([1, 0, 0, 0, 0]))

    def test_two_planes_k1_passes(self, tmp_path, capsys):
        path = tmp_path / "tp.json"
        run_cli(["gen", "two-planes", "-o", str(path)], capsys)
        code, out, _ = run_cli(["check", str(path), "--k", "1"], capsys)
        assert code == 0 and json.loads(out)["verdict"] is True

    def test_default_k_is_dim_minus_lineality(self, tmp_path, capsys):
        path = tmp_path / "b.json"
        run_cli(["gen", "bergman-uniform", "3", "4", "-o", str(path)], capsys)
        code, out, _ = run_cli(["check", str(path)], capsys)
        cert = json.loads(out)
        assert code == 0 and cert["k"] == 2 and cert["verdict"] is True
        assert cert["d"] == 3 and cert["lineality_dim"] == 1

    def test_certificate_witness_rechecks(self, tmp_path, capsys):
        path = tmp_path / "tp.json"
        run_cli(["gen", "two-planes", "-o", str(path)], capsys)
        _, out, _ = run_cli(["check", str(path), "--k", "2"], capsys)
        cert = json.loads(out)
        h = build_hypergraph(load_fan(str(path)))
        assert connected_after_removal(h, cert["witness"]) is False

    def test_budget_env(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "cube.json"
        run_cli(["gen", "normal-fan-cube", "3", "-o", str(path)], capsys)
        monkeypatch.setenv("TROPICON_BUDGET", "5")
        code, _, err = run_cli(["check", str(path), "--k", "4"], capsys)
        assert code == 1 and "budget" in err

    def test_missing_file_exits_1(self, capsys):
        code, _, _ = run_cli(["check", "/nonexistent/fan.json"], capsys)
        assert code == 1

    def test_d_equals_lineality_is_vacuous(self, tmp_path, capsys):
        path = tmp_path / "u13.json"
        run_cli(["gen", "bergman-uniform", "1", "3", "-o", str(path)], capsys)
        code, out, _ = run_cli(["check", str(path)], capsys)
        cert = json.loads(out)
        assert code == 0 and cert["verdict"] is True
        assert cert["k"] == 0 and cert["subsets_examined"] == 0

    # (key, value, word): value replaces obj[key], or the whole document
    # when key is None; the error message must name the word
    @pytest.mark.parametrize("key,value,word", [
        ("rays", [[0, 0], [0, 1]], "ray"),
        ("rays", [[2, 0], [0, 1]], "ray"),
        ("rays", [["1/2", 0], [0, 1]], "ray"),
        ("lineality", [["1/2", 0]], "lineality"),
        (None, 5, "object"),
        ("rays", 5, "rays"),
        ("rays", [5], "ray"),
        ("vertices", [5], "vertex"),
        ("lineality", [5], "lineality"),
        ("cells", [5], "cell"),
        ("cells", [{"v": 5, "r": [0, 1]}], "cell"),
        ("cells", [{"v": [], "r": 5}], "cell"),
        ("cells", [{"v": [], "r": [[0], 1]}], "cell"),
        ("ambient_dim", [2], "ambient_dim"),
        ("weights", [[1]], "weight"),
        ("weights", [], "weight"),
        ("weights", [1, 1], "weight"),
    ], ids=["zero-ray", "non-primitive-ray", "fractional-ray",
            "fractional-lineality", "top-level-number", "rays-not-list",
            "ray-not-list", "vertex-not-list", "lineality-row-not-list",
            "cell-not-object", "cell-v-not-list", "cell-r-not-list",
            "cell-index-list", "ambient-dim-list", "weight-list",
            "weights-too-few", "weights-too-many"])
    def test_off_schema_vectors_exit_1(self, tmp_path, capsys, key, value, word):
        obj = {"ambient_dim": 2, "rays": [[1, 0], [0, 1]], "vertices": [],
               "lineality": [], "cells": [{"v": [], "r": [0, 1]}], "weights": [1]}
        if key is None:
            obj = value
        else:
            obj[key] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(obj))
        code, _, err = run_cli(["check", str(path)], capsys)
        assert code == 1 and word in err


class TestCliSlice:
    def test_tropical_plane_slice(self, tmp_path, capsys):
        path = tmp_path / "plane.json"
        out_path = tmp_path / "section.json"
        run_cli(["gen", "tropical-plane", "-o", str(path)], capsys)
        code, out, _ = run_cli(
            ["slice", str(path), "--h", "1,2,4", "--c", "1", "-o", str(out_path)],
            capsys)
        assert code == 0
        summary = json.loads(out)
        assert summary["facets"] == 6 and summary["ridges"] == 3
        assert summary["connected"] is True
        section = load_fan(str(out_path))
        assert section.dim == 1 and validate_complex(section).valid

    def test_two_planes_slice_disconnected(self, tmp_path, capsys):
        path = tmp_path / "tp.json"
        out_path = tmp_path / "sec.json"
        run_cli(["gen", "two-planes", "-o", str(path)], capsys)
        code, out, _ = run_cli(
            ["slice", str(path), "--h", "1,0,0,0,0", "--c", "-1",
             "-o", str(out_path)], capsys)
        assert code == 0
        summary = json.loads(out)
        assert summary["connected"] is False and summary["facets"] == 6

    def test_slice_through_origin_exits_1(self, tmp_path, capsys):
        path = tmp_path / "plane.json"
        run_cli(["gen", "tropical-plane", "-o", str(path)], capsys)
        code, _, err = run_cli(["slice", str(path), "--h", "1,2,4", "--c", "0"], capsys)
        assert code == 1 and "transverse" in err


class TestCliOther:
    def test_balance_pass_and_fail(self, tmp_path, capsys):
        path = tmp_path / "b.json"
        run_cli(["gen", "bergman-uniform", "3", "4", "-o", str(path)], capsys)
        code, out, _ = run_cli(["balance", str(path)], capsys)
        assert code == 0 and json.loads(out)["balanced"] is True
        # perturb one weight
        fan = load_fan(str(path))
        obj = fan_to_obj(fan)
        obj["weights"][0] = 2
        bad_path = tmp_path / "bad.json"
        bad_path.write_text(json.dumps(obj))
        code, out, _ = run_cli(["balance", str(bad_path)], capsys)
        assert code == 2
        report = json.loads(out)
        assert report["balanced"] is False and report["failing"]

    def test_quotient_roundtrip(self, tmp_path, capsys):
        path = tmp_path / "b.json"
        out_path = tmp_path / "q.json"
        run_cli(["gen", "bergman-uniform", "2", "3", "-o", str(path)], capsys)
        code, _, _ = run_cli(["quotient", str(path), "-o", str(out_path)], capsys)
        assert code == 0
        q = load_fan(str(out_path))
        assert q.ambient_dim == 2 and q.lineality_dim == 0 and len(q) == 3

    def test_star_command(self, tmp_path, capsys):
        path = tmp_path / "cube.json"
        run_cli(["gen", "normal-fan-cube", "3", "-o", str(path)], capsys)
        fan = load_fan(str(path))
        ray_id = fan.ray_pool.index(vec([1, 0, 0]))
        code, out, _ = run_cli(
            ["star", str(path), "--face", f"r{ray_id}"], capsys)
        assert code == 0
        st = fan_from_text(out)
        assert len(st) == 4 and st.ambient_dim == 2

    def test_star_bad_face_spec(self, tmp_path, capsys):
        path = tmp_path / "cube.json"
        run_cli(["gen", "normal-fan-cube", "2", "-o", str(path)], capsys)
        code, _, err = run_cli(["star", str(path), "--face", "x3"], capsys)
        assert code == 1 and "face token" in err

    def test_dot_command(self, tmp_path, capsys):
        path = tmp_path / "tp.json"
        run_cli(["gen", "two-planes", "-o", str(path)], capsys)
        code, out, _ = run_cli(["dot", str(path)], capsys)
        assert code == 0
        assert out.count("shape=box") == 12 and out.count("shape=circle") == 7

    def test_dot_bergman_u23(self, tmp_path, capsys):
        path = tmp_path / "b23.json"
        run_cli(["gen", "bergman-uniform", "2", "3", "-o", str(path)], capsys)
        code, out, _ = run_cli(["dot", str(path)], capsys)
        assert code == 0
        assert out.count("shape=box") == 3
        assert out.count("shape=circle") == 1
        assert out.count(" -- ") == 3


def test_console_script_installed():
    proc = subprocess.run([sys.executable, "-m", "tropicon.cli", "gen", "two-planes"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["ambient_dim"] == 5
