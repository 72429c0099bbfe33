import io
import json
import random
import subprocess
import sys
from contextlib import redirect_stdout
from fractions import Fraction as F

import pytest

from test_tropical import disjoint_lines, same_fan, u34_times_a_line
from tropicon import cli, matroid, tropical
from tropicon.connectivity import build_hypergraph, connected_after_removal
from tropicon.fanjson import (
    fan_from_obj, fan_from_text, fan_to_obj, fan_to_text, load_fan, parse_json, parse_rational,
)
from tropicon.matroid import Matroid, bergman_fine, matroid_from_json
from tropicon.polyhedral import Complex, Polyhedron, validate_complex
from tropicon.ratlin import vec
from tropicon.tropical import CUBE_DIM_LIMIT, cube_normal_fan, two_planes_fan


class TestRationalStrings:
    def test_format(self):
        # the writer prints a Fraction as str does
        assert str(F(3)) == "3"
        assert str(F(-2, 5)) == "-2/5"

    def test_parse(self):
        assert parse_rational("3/4") == F(3, 4)
        assert parse_rational("-2") == F(-2)
        assert parse_rational(7) == F(7)
        with pytest.raises(ValueError):
            parse_rational(0.5)
        with pytest.raises(ValueError):
            parse_rational(True)
        with pytest.raises(ValueError, match="denominator"):
            parse_rational("1/0")

    def test_round_trip(self):
        for x in (F(0), F(5), F(-3, 7), F(22, 6)):
            assert parse_rational(str(x)) == x


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
        path.write_text(fan_to_text(two_planes_fan()))
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

    def test_bergman_uniform_past_the_chain_limit(self, capsys, monkeypatch):
        # U(4, 6) has 6!/3! = 120 cones, one more than this limit
        monkeypatch.setattr(matroid, "CHAIN_LIMIT", 119)
        assert run_cli(["gen", "bergman-uniform", "4", "6"], capsys) == \
            (1, "", "tropicon: maximal chains of flats exceed the limit 119\n")

    def test_bergman_uniform_rank_past_the_ground_set(self, capsys):
        assert run_cli(["gen", "bergman-uniform", "3", "2"], capsys) == \
            (1, "", "tropicon: need 0 <= r <= n\n")

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

    @pytest.mark.parametrize("d, message", [
        (0, "dimension must be positive"),
        (CUBE_DIM_LIMIT + 1, f"cube dimension {CUBE_DIM_LIMIT + 1} exceeds the limit "
                             f"{CUBE_DIM_LIMIT}"),
    ], ids=["zero", "past-the-limit"])
    def test_normal_fan_cube_dimension_out_of_range(self, capsys, monkeypatch, d, message):
        # the dimension is checked before the construction starts: building
        # the fan would call None and raise TypeError, which main does not catch
        monkeypatch.setattr(tropical, "normal_fan", None)
        assert run_cli(["gen", "normal-fan-cube", str(d)], capsys) == \
            (1, "", f"tropicon: {message}\n")

    def test_normal_fan_from_vertices_file(self, tmp_path, capsys):
        vfile = tmp_path / "verts.json"
        vfile.write_text(json.dumps([["0", "0"], ["1", "0"], ["0", "1"]]))
        code, out, _ = run_cli(["gen", "normal-fan", str(vfile)], capsys)
        assert code == 0
        assert len(fan_from_text(out)) == 3

    def test_normal_fan_points_not_lists_exit_1(self, tmp_path, capsys):
        vfile = tmp_path / "verts.json"
        vfile.write_text("5")
        code, _, err = run_cli(["gen", "normal-fan", str(vfile)], capsys)
        assert code == 1 and "points file" in err

    def test_normal_fan_ragged_points_exit_1(self, tmp_path, capsys):
        vfile = tmp_path / "verts.json"
        vfile.write_text(json.dumps([[0, 0], [1, 0, 0], [0, 1]]))
        code, out, err = run_cli(["gen", "normal-fan", str(vfile)], capsys)
        assert code == 1 and "ragged" in err and out == ""

    def test_normal_fan_deeply_nested_points_exit_1(self, tmp_path, capsys):
        vfile = tmp_path / "verts.json"
        vfile.write_text("[" * 5000 + "0" + "]" * 5000)
        code, out, err = run_cli(["gen", "normal-fan", str(vfile)], capsys)
        assert (code, out) == (1, "") and "JSON nests too deeply" in err

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
        witness_cell = fan.facet_polyhedra[cert["witness"][0]]
        assert witness_cell.contains_point(vec([1, 0, 0, 0, 0]))

    def test_mincut_of_a_disconnected_fan_is_empty(self, tmp_path, capsys):
        # the first cell shares no ridge with the other two
        path = tmp_path / "disc.json"
        path.write_text(json.dumps({
            "ambient_dim": 3, "vertices": [], "lineality": [],
            "rays": [[-1, 0, 0], [0, -1, 0], [0, 1, 0], [0, 0, 1], [1, 0, 0]],
            "cells": [{"v": [], "r": [0, 1]}, {"v": [], "r": [2, 3]},
                      {"v": [], "r": [2, 4]}],
            "weights": [1, 1, 1]}))
        code, out, _ = run_cli(["check", str(path), "--mincut"], capsys)
        assert code == 2
        cert = json.loads(out)
        assert (cert["witness"], cert["mincut_size"], cert["mincut_witness"]) == \
            ([1], 0, [])

    @pytest.mark.parametrize("rays,cells", [
        ([[0, 1], [1, 0]], [[0, 1]]),
        ([], []),
    ], ids=["one-facet", "empty"])
    def test_mincut_below_two_facets_is_null(self, tmp_path, capsys, rays, cells):
        # no two facets to separate: the verdict is vacuous and no cut exists
        path = tmp_path / "fan.json"
        path.write_text(json.dumps({
            "ambient_dim": 2, "vertices": [], "lineality": [], "rays": rays,
            "cells": [{"v": [], "r": r} for r in cells], "weights": [1] * len(cells)}))
        code, out, err = run_cli(["check", str(path), "--mincut"], capsys)
        assert code == 0 and err == ""
        cert = json.loads(out)
        assert cert["verdict"] is True and cert["facets"] == len(cells)
        assert (cert["mincut_size"], cert["mincut_witness"]) == (None, None)

    @pytest.mark.parametrize("rays,cells,k,witness,mincut", [
        # a path of three facets; the middle one separates the ends
        ([[-1, 0], [0, -1], [0, 1], [1, 0]], [[3, 2], [2, 0], [0, 1]], 3, [1], 1),
        # the first cell shares no ridge with the other two
        ([[-1, 0, 0], [0, -1, 0], [0, 1, 0], [0, 0, 1], [1, 0, 0]],
         [[0, 1], [2, 3], [2, 4]], 3, [1], 0),
        # two opposite quadrants share only the origin
        ([[-1, 0], [0, -1], [0, 1], [1, 0]], [[0, 1], [2, 3]], 5, [], 0),
    ], ids=["path", "disconnected", "two-apart"])
    def test_separator_within_k_minus_1_refutes_past_the_facet_count(
            self, tmp_path, capsys, rays, cells, k, witness, mincut):
        path = tmp_path / "fan.json"
        path.write_text(json.dumps({
            "ambient_dim": len(rays[0]), "vertices": [], "lineality": [],
            "rays": rays, "cells": [{"v": [], "r": r} for r in cells],
            "weights": [1] * len(cells)}))
        code, out, _ = run_cli(["check", str(path), "--k", str(k), "--mincut"], capsys)
        assert code == 2
        cert = json.loads(out)
        assert (cert["verdict"], cert["witness"], cert["mincut_size"]) == \
            (False, witness, mincut)

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

    @pytest.mark.parametrize("command", ["check", "balance", "dot"])
    def test_validates_once(self, tmp_path, capsys, monkeypatch, command):
        from tropicon import polyhedral
        path = tmp_path / "b.json"
        run_cli(["gen", "bergman-uniform", "3", "4", "-o", str(path)], capsys)
        calls = []
        validate = polyhedral._validate
        monkeypatch.setattr(polyhedral, "_validate",
                            lambda c: calls.append(c) or validate(c))
        code, _, _ = run_cli([command, str(path)], capsys)
        assert code == 0 and len(calls) == 1

    def test_budget_env(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "cube.json"
        run_cli(["gen", "normal-fan-cube", "3", "-o", str(path)], capsys)
        monkeypatch.setenv("TROPICON_BUDGET", "5")
        code, _, err = run_cli(["check", str(path), "--k", "4"], capsys)
        assert code == 1 and "budget" in err

    @pytest.mark.parametrize("raw", ["abc", "-1", "0", "1.5", "+5", "\u0661\u0660\u0660"])
    def test_budget_env_must_be_a_positive_integer(self, tmp_path, capsys, monkeypatch, raw):
        path = tmp_path / "cube.json"
        run_cli(["gen", "normal-fan-cube", "3", "-o", str(path)], capsys)
        monkeypatch.setenv("TROPICON_BUDGET", raw)
        code, out, err = run_cli(["check", str(path), "--k", "4"], capsys)
        assert code == 1 and out == ""
        assert err == f"tropicon: TROPICON_BUDGET must be a positive integer, not {raw!r}\n"

    def test_empty_budget_env_is_the_default(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "cube.json"
        run_cli(["gen", "normal-fan-cube", "3", "-o", str(path)], capsys)
        monkeypatch.setenv("TROPICON_BUDGET", "")
        code, _, _ = run_cli(["check", str(path), "--k", "4"], capsys)
        assert code == 2

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
        ("lineality", [[0, 0]], "lineality"),
        ("lineality", [[1, 1], [1, 1]], "lineality"),
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
        ("vertices", [["1/0", "0"]], "denominator"),
        (None, {"ambient_dim": -1, "rays": [], "vertices": [], "lineality": [],
                "cells": [], "weights": []}, "ambient_dim"),
    ], ids=["zero-ray", "non-primitive-ray", "fractional-ray",
            "fractional-lineality", "zero-lineality", "dependent-lineality",
            "top-level-number", "rays-not-list",
            "ray-not-list", "vertex-not-list", "lineality-row-not-list",
            "cell-not-object", "cell-v-not-list", "cell-r-not-list",
            "cell-index-list", "ambient-dim-list", "weight-list",
            "weights-too-few", "weights-too-many", "vertex-zero-denominator",
            "negative-ambient-dim"])
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


def _square_fan(**changes):
    """Two quadrants of the plane, with the given keys replaced."""
    obj = {"ambient_dim": 2, "rays": [[0, 1], [1, 0], [-1, 0]], "vertices": [],
           "lineality": [], "cells": [{"v": [], "r": [0, 1]}, {"v": [], "r": [0, 2]}],
           "weights": [1, 1]}
    obj.update(changes)
    return obj


class TestStrictFanFiles:
    """Files that a schema-blind reader would certify, all rejected with
    exit 1: each used to print a true verdict."""

    @pytest.mark.parametrize("obj,word", [
        (_square_fan(cells=[{"v": [], "r": [0, 1]}, {"v": [], "r": [0, 1]}],
                     rays=[[1, 0], [0, 1]]), "identical"),
        ({"ambient_dim": 2, "rays": [[1, 0], [1, 0], [0, 1]], "vertices": [],
          "lineality": [], "cells": [{"v": [], "r": [0, 2]}, {"v": [], "r": [1, 2]}],
          "weights": [1, 1]}, "equal"),
        (_square_fan(cells=[{"rays": [0, 1]}, {"rays": [0, 1]}]), "keys"),
        # (1, 1) lies inside cone((1, 0), (0, 1)): two index sets, one cone
        ({"ambient_dim": 2, "rays": [[1, 0], [0, 1], [1, 1]], "vertices": [], "lineality": [],
          "cells": [{"r": [0, 1]}, {"r": [0, 1, 2]}], "weights": [1, 1]},
         "invalid complex: facets 0 and 1 coincide"),
    ], ids=["duplicate-cells", "duplicate-rays", "cells-with-unknown-keys", "coinciding-cells"])
    def test_repros_exit_1(self, tmp_path, capsys, obj, word):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(obj))
        for command in ("check", "balance"):
            code, out, err = run_cli([command, str(path)], capsys)
            assert (code, out) == (1, "") and word in err and "Traceback" not in err

    @pytest.mark.parametrize("text", [
        "[" * 100_000,
        '{"ambient_dim": 2, "rays": %s0%s, "vertices": [], "lineality": [], '
        '"cells": [], "weights": []}' % ("[" * 5000, "]" * 5000),
    ], ids=["open-brackets", "deep-rays"])
    def test_deeply_nested_json_exits_1(self, tmp_path, capsys, text):
        # a RecursionError of the parser is an input error, not a traceback
        path = tmp_path / "deep.json"
        path.write_text(text)
        for command in ("check", "balance"):
            code, out, err = run_cli([command, str(path)], capsys)
            assert (code, out) == (1, "") and "JSON nests too deeply" in err

    @pytest.mark.parametrize("lineality", [
        [[0, 0]], [[1, 1], [1, 1]], [[1, 1], [-2, -2]], [[1, 0], [0, 1], [1, 1]],
        # rays equal modulo the span of the rows: the rows are reported first
        [[1, 1], [2, 2], [0, 0]],
    ], ids=["zero", "repeated", "parallel", "three-in-the-plane", "before-rays"])
    def test_dependent_lineality_exits_1(self, tmp_path, capsys, lineality):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(_square_fan(
            rays=[[1, 0], [2, 1]], lineality=lineality,
            cells=[{"v": [], "r": [0]}, {"v": [], "r": [1]}])))
        for command in ("check", "balance", "slice"):
            argv = [command, str(path)] + ["--h", "1,2", "--c", "1"] * (command == "slice")
            code, out, err = run_cli(argv, capsys)
            assert (code, out) == (1, "") and "Traceback" not in err
            assert "lineality rows are zero or linearly dependent" in err, err

    @pytest.mark.parametrize("obj,message", [
        (dict(_square_fan(), name="quadrants"), "fan file has unknown keys: ['name']"),
        (_square_fan(cells=[{"v": [], "r": [0, 1], "w": 2}, {"v": [], "r": [0, 2]}]),
         "is not an object with keys among 'v' and 'r'"),
        (_square_fan(cells=[{"v": [], "r": [0, 1, 0]}, {"v": [], "r": [0, 2]}]),
         "repeats an index"),
        (_square_fan(cells=[{"v": [], "r": [1, 0]}, {"v": [], "r": [0, 2]},
                            {"r": [0, 1]}], weights=[1, 1, 1]),
         "cells 0 and 2 are identical"),
        (_square_fan(rays=[[0, 1], [1, 0], [0, 1]]),
         "rays [0, 1] and [0, 1] are equal modulo the lineality"),
        # (1, 0) and (2, 1) differ by the lineality (1, 1) up to a scale
        (_square_fan(rays=[[1, 0], [2, 1]], lineality=[[1, 1]],
                     cells=[{"v": [], "r": [0]}, {"v": [], "r": [1]}]),
         "rays [1, 0] and [2, 1] are equal modulo the lineality"),
    ], ids=["top-level-key", "cell-key", "repeated-index", "identical-cells",
            "equal-rays", "equal-modulo-lineality"])
    def test_rejected_with_a_message(self, obj, message):
        with pytest.raises(ValueError) as info:
            fan_from_obj(obj)
        assert message in str(info.value)

    def test_opposite_and_distinct_rays_load(self):
        # opposite rays modulo the lineality are different generators
        c = fan_from_obj(_square_fan(rays=[[1, 0], [-1, 0]], lineality=[[0, 1]],
                                     cells=[{"v": [], "r": [0]}, {"v": [], "r": [1]}]))
        assert len(c.ray_pool) == 2 and c.lineality == ((F(0), F(1)),)

    @pytest.mark.parametrize("row,message", [
        ([0, 0], "ray [0, 0] is not a primitive nonzero vector"),
        ([2, 0], "ray [2, 0] is not a primitive nonzero vector"),
        (["2", "0"], "ray [2, 0] is not a primitive nonzero vector"),
        (["1/2", 0], "ray entry '1/2' is not an integer"),
        ([True, 0], "ray entry True is not an integer"),
        ([1.0, 0], "ray entry 1.0 is not an integer"),
    ], ids=["zero", "non-primitive", "non-primitive-strings", "non-integer", "true",
            "float"])
    def test_ray_row_messages(self, row, message):
        # a ray's entries are read as every integer of the file is, so the
        # message names the entry as written; a bool is never read as an int
        with pytest.raises(ValueError) as info:
            fan_from_obj(_square_fan(rays=[row, [0, 1], [-1, 0]]))
        assert str(info.value) == message

    @pytest.mark.parametrize("changes,message", [
        ({"cells": [{"v": [], "r": [True, 0]}, {"v": [], "r": [0, 2]}]},
         "cell index True is not an integer"),
        ({"weights": [1, True]}, "weight True is not an integer"),
        ({"weights": [1, 1.0]}, "weight 1.0 is not an integer"),
    ], ids=["bool-index", "bool-weight", "float-weight"])
    def test_index_and_weight_lists_take_ints_only(self, changes, message):
        with pytest.raises(ValueError) as info:
            fan_from_obj(_square_fan(**changes))
        assert str(info.value) == message
        # strings of integers still read as before
        c = fan_from_obj(_square_fan(cells=[{"v": [], "r": ["0", 1]}, {"r": [0, "2"]}],
                                     weights=["2", 3]))
        assert c.cells == (((), (0, 1)), ((), (0, 2))) and c.weights == (2, 3)

    def test_integer_rows_become_the_same_fractions(self):
        ints = fan_from_obj(_square_fan(lineality=[]))
        strings = fan_from_obj(_square_fan(rays=[["0", "1"], ["1", "0"], ["-1", "0"]]))
        assert ints.ray_pool == strings.ray_pool == ((F(0), F(1)), (F(1), F(0)), (F(-1), F(0)))
        assert all(type(x) is F for r in ints.ray_pool for x in r)

    @pytest.mark.parametrize("changes", [
        {"ambient_dim": 3, "rays": [[1, 0], [0, 1]], "cells": [{"r": [0, 1]}], "weights": [1]},
        {"vertices": [["0", "0", "1/2"]], "cells": [{"v": [0], "r": [0, 1]}, {"r": [0, 2]}]},
        {"lineality": [[1, 1, 1]]},
    ], ids=["ray", "vertex", "lineality"])
    def test_rows_of_the_wrong_length(self, tmp_path, capsys, changes):
        # the complex rejects them on construction, so loading does, and
        # validation never meets them
        obj = _square_fan(**changes)
        with pytest.raises(ValueError, match="^generator has wrong ambient dimension$"):
            fan_from_obj(obj)
        n = obj["ambient_dim"]
        with pytest.raises(ValueError, match="^generator has wrong ambient dimension$"):
            Complex(n, tuple(tuple(map(F, v)) for v in obj["vertices"]),
                    tuple(tuple(map(F, r)) for r in obj["rays"]),
                    tuple(tuple(map(F, l)) for l in obj["lineality"]),
                    tuple((tuple(c.get("v", ())), tuple(c["r"])) for c in obj["cells"]))
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(obj))
        for command in ("check", "balance"):
            code, out, err = run_cli([command, str(path)], capsys)
            assert (code, out) == (1, "") and "wrong ambient dimension" in err
            assert "Traceback" not in err


# the most digits CPython writes an int with, the bound of the number rule
LIMIT = sys.get_int_max_str_digits()


def _point_fan(vertex):
    """A fan in R^1: one cell, the vertex plus the ray (1)."""
    return {"ambient_dim": 1, "rays": [[1]], "vertices": [[vertex]], "lineality": [],
            "cells": [{"v": [0], "r": [0]}], "weights": [1]}


class TestWrittenNumbers:
    """Strings become numbers by one rule, in fan, points and matroid files
    and in `slice`'s arguments: integers -?[0-9]+, and rationals written
    in 0-9 + - / . e E as Fraction reads them; ASCII only, with no spaces or
    underscores, all of which int() and Fraction() take."""

    def test_the_forms_kept(self):
        assert [parse_rational(x) for x in ("3/4", "-2", "+5", "1.5", "2e3", 7)] == \
            [F(3, 4), F(-2), F(5), F(3, 2), F(2000), F(7)]
        c = fan_from_obj(_square_fan(rays=[["0", "1"], [1, 0], ["-1", "0"]],
                                     ambient_dim="2", weights=["02", 1]))
        assert (c.ambient_dim, c.ray_pool[0], c.weights) == (2, (F(0), F(1)), (2, 1))

    @pytest.mark.parametrize("raw", [" 3/2 ", "3/2\n", "1_0", "\u0663", "1/\u0662", "\uff11"])
    def test_rational_strings_take_ascii_without_spaces(self, raw):
        with pytest.raises(ValueError) as info:
            parse_rational(raw)
        assert str(info.value) == f"rational {raw!r} is not written in 0-9 + - / . e E"

    @pytest.mark.parametrize("changes,message", [
        ({"weights": ["1_0", 1]}, "weight '1_0' is not an integer"),
        ({"ambient_dim": "\u0662"}, "ambient_dim '\u0662' is not an integer"),
        ({"ambient_dim": "+2"}, "ambient_dim '+2' is not an integer"),
        ({"cells": [{"r": [" 1", 0]}, {"r": [0, 2]}]}, "cell index ' 1' is not an integer"),
        ({"vertices": [[" 3/2 ", "0"]], "cells": [{"v": [0], "r": [0, 1]}, {"v": [0], "r": [0, 2]}]},
         "rational ' 3/2 ' is not written in 0-9 + - / . e E"),
        ({"rays": [["0", "1"], ["1_0", "1"], [-1, 0]]}, "ray entry '1_0' is not an integer"),
    ], ids=["underscored-weight", "arabic-indic-dim", "signed-dim", "spaced-index",
            "spaced-vertex", "underscored-ray"])
    def test_fan_files_exit_1(self, tmp_path, capsys, changes, message):
        path = tmp_path / "f.json"
        path.write_text(json.dumps(_square_fan(**changes)))
        assert run_cli(["check", str(path)], capsys) == (1, "", f"tropicon: {message}\n")

    @pytest.mark.parametrize("argv,raw", [
        (["slice", "plane.json", "--h", "1,2,4", "--c", "1_0"], "1_0"),
        (["slice", "plane.json", "--h", "1,\u0662,4", "--c", "1"], "\u0662"),
        (["gen", "normal-fan", "pts.json"], "1_0"),
    ], ids=["underscored-offset", "arabic-indic-normal", "underscored-point"])
    def test_arguments_and_points_exit_1(self, tmp_path, capsys, monkeypatch, argv, raw):
        monkeypatch.chdir(tmp_path)
        run_cli(["gen", "tropical-plane", "-o", "plane.json"], capsys)
        (tmp_path / "pts.json").write_text(json.dumps([["1_0", 0], [0, 1], [1, 1]]))
        message = f"rational {raw!r} is not written in 0-9 + - / . e E"
        assert run_cli(argv, capsys) == (1, "", f"tropicon: {message}\n")

    @pytest.mark.parametrize("raw", ["1e99999", "1e-00001", "2.5E+10000", "1e999999999"])
    def test_exponents_stop_at_4_digits(self, raw):
        with pytest.raises(ValueError) as info:
            parse_rational(raw)
        assert str(info.value) == f"rational {raw!r} has an exponent of more than 4 digits"
        assert parse_rational("1e4299") == 10 ** 4299 and parse_rational("1e-0004") == F(1, 10 ** 4)

    def test_the_longest_numbers_are_written_back(self, tmp_path, capsys):
        path = tmp_path / "f.json"
        path.write_text(json.dumps(_point_fan(f"1e{LIMIT - 1}")))
        code, out, err = run_cli(["quotient", str(path)], capsys)
        assert (code, err) == (0, "") and json.loads(out)["vertices"] == [[str(10 ** (LIMIT - 1))]]
        assert str(parse_rational("9" * LIMIT)) == "9" * LIMIT
        assert str(parse_rational("1/" + "9" * LIMIT)) == "1/" + "9" * LIMIT

    @pytest.mark.parametrize("command", ["check", "quotient", "dot"])
    @pytest.mark.parametrize("raw", [f"1e{LIMIT}", f"1e-{LIMIT}", f"-1e{LIMIT}"])
    def test_numbers_past_the_digit_limit_exit_1(self, tmp_path, capsys, command, raw):
        path = tmp_path / "f.json"
        path.write_text(json.dumps(_point_fan(raw)))
        assert run_cli([command, str(path)], capsys) == \
            (1, "", f"tropicon: rational {raw!r} has more than {LIMIT} digits\n")

    def test_offsets_past_the_digit_limit_exit_1(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        run_cli(["gen", "tropical-plane", "-o", "plane.json"], capsys)
        assert run_cli(["slice", "plane.json", "--h", "1,2,3", "--c", f"1e{LIMIT}"], capsys) == \
            (1, "", f"tropicon: rational '1e{LIMIT}' has more than {LIMIT} digits\n")

    def test_integer_literals_past_the_digit_limit_exit_1(self, tmp_path, capsys):
        path = tmp_path / "f.json"
        path.write_text(json.dumps(_square_fan()).replace("[0, 1]", "[0, " + "1" * 5001 + "]", 1))
        assert run_cli(["check", str(path)], capsys) == \
            (1, "", f"tropicon: an integer literal has more than {LIMIT} digits\n")
        with pytest.raises(json.JSONDecodeError):  # other errors keep the parser's words
            parse_json("[1, ]")

    @pytest.mark.parametrize("raw", ["1" * (LIMIT + 1), "0." + "0" * LIMIT + "1", 10 ** LIMIT],
                             ids=["digits", "decimals", "int"])
    def test_rationals_past_the_digit_limit(self, raw):
        with pytest.raises(ValueError) as info:
            parse_rational(raw)
        # repr() refuses an int past the limit, so the message cannot show it
        what = f"rational {raw!r}" if isinstance(raw, str) else "an integer"
        assert str(info.value) == f"{what} has more than {LIMIT} digits"

    def test_integer_strings_past_the_digit_limit(self):
        raw = "-" + "0" * LIMIT + "1"
        with pytest.raises(ValueError) as info:
            fan_from_obj(_square_fan(weights=[raw, 1]))
        assert str(info.value) == f"weight {raw!r} has more than {LIMIT} digits"
        assert fan_from_obj(_square_fan(weights=["0" * (LIMIT - 1) + "2", 1])).weights == (2, 1)
        # the sign is no digit
        ray = "-" + "0" * (LIMIT - 1) + "1"
        assert fan_from_obj(_square_fan(rays=[[0, 1], [1, 0], [ray, 0]])).ray_pool[2] == (-1, 0)

    @pytest.mark.parametrize("h", ["1,,2,4", "1,2,4,", ",1,2,4", "1, ,2"])
    def test_empty_normal_fields_exit_1(self, tmp_path, capsys, monkeypatch, h):
        monkeypatch.chdir(tmp_path)
        run_cli(["gen", "tropical-plane", "-o", "plane.json"], capsys)
        assert run_cli(["slice", "plane.json", "--h", h, "--c", "1"], capsys) == \
            (1, "", f"tropicon: --h {h!r} has an empty field\n")

    @pytest.mark.parametrize("h", ["1 2 4", "1, 2, 4", " 1,2 ,4 "])
    def test_normals_split_on_commas_and_whitespace(self, tmp_path, capsys, monkeypatch, h):
        monkeypatch.chdir(tmp_path)
        run_cli(["gen", "tropical-plane", "-o", "plane.json"], capsys)
        assert run_cli(["slice", "plane.json", "--h", h, "--c", "1"], capsys) == \
            run_cli(["slice", "plane.json", "--h", "1,2,4", "--c", "1"], capsys)

    @pytest.mark.parametrize("obj,message", [
        ({"type": "uniform", "r": "1_0", "n": 12}, "r '1_0' is not an integer"),
        ({"type": "graphic", "edges": [[0, " 1"]]}, "vertex ' 1' is not an integer"),
        ({"type": "linear", "columns": [["1_0", 0], [0, 1]]},
         "rational '1_0' is not written in 0-9 + - / . e E"),
    ], ids=["uniform", "graphic", "linear"])
    def test_matroid_files_share_the_rule(self, obj, message):
        with pytest.raises(ValueError) as info:
            matroid_from_json(obj)
        assert str(info.value) == message


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

    @pytest.mark.parametrize("h,c", [("-2,1,3", "-1"), ("1,2,4", "-1/2")],
                             ids=["negative-normal", "negative-fraction"])
    def test_negative_values_as_separate_arguments(self, tmp_path, capsys, h, c):
        path = tmp_path / "plane.json"
        run_cli(["gen", "tropical-plane", "-o", str(path)], capsys)
        joined = run_cli(["slice", str(path), f"--h={h}", f"--c={c}"], capsys)
        assert joined[0] == 0
        separate = run_cli(["slice", str(path), "--h", h, "--c", c], capsys)
        assert separate[:2] == joined[:2]

    @pytest.mark.parametrize("h,c", [("1,2,4", "1/0"), ("1/0,1,1", "1")],
                             ids=["offset", "normal"])
    def test_zero_denominator_exits_1(self, tmp_path, capsys, h, c):
        path = tmp_path / "plane.json"
        run_cli(["gen", "tropical-plane", "-o", str(path)], capsys)
        code, _, err = run_cli(["slice", str(path), "--h", h, "--c", c], capsys)
        assert code == 1 and "denominator" in err


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

    @pytest.mark.parametrize("spec,word", [
        ("x3", "face token"),
        ("r-1", "face token 'r-1'"),
        ("r4", "outside the fan's pools"),
        ("v0", "face token"),
        # int() would take the digits of these, or fail with its own message
        ("r0,r", "face token 'r'"),
        ("r+1", "face token 'r+1'"),
        ("r-0", "face token 'r-0'"),
        ("r\u0663", "face token 'r\u0663'"),
        ("r1x", "face token 'r1x'"),
    ], ids=["bad-token", "negative-index", "index-past-pool", "empty-vertex-pool",
            "no-digits", "plus-sign", "minus-zero", "arabic-digit", "trailing-letter"])
    def test_star_bad_face_spec(self, tmp_path, capsys, spec, word):
        path = tmp_path / "cube.json"
        run_cli(["gen", "normal-fan-cube", "2", "-o", str(path)], capsys)
        code, _, err = run_cli(["star", str(path), "--face", spec], capsys)
        assert code == 1 and word in err

    def test_quotient_keeps_small_entries(self, tmp_path, capsys):
        # two opposite rays modulo a rank-3 lineality in R^7, where a
        # projection with entries of about 13,400 digits once overflowed
        # Python's integer string limit
        obj = {"ambient_dim": 7, "vertices": [],
               "rays": [[1, 0, 0, 0, 0, 0, 0], [-1, 0, 0, 0, 0, 0, 0]],
               "lineality": [[14, -6, 24, 42, 0, -12, -3], [49, 14, 6, 4, -49, -1, 21],
                             [392, -126, 132, 366, 588, -72, -21]],
               "cells": [{"r": [0]}, {"r": [1]}], "weights": [1, 1]}
        path, out_path = tmp_path / "f.json", tmp_path / "q.json"
        path.write_text(json.dumps(obj))
        code, _, _ = run_cli(["quotient", str(path), "-o", str(out_path)], capsys)
        assert code == 0
        q = load_fan(str(out_path))
        assert q.ambient_dim == 4 and q.lineality_dim == 0

        def report(command, p):
            code, out, _ = run_cli([command, str(p)], capsys)
            assert code == 0
            return json.loads(out)

        before, after = report("check", path), report("check", out_path)
        assert (after["verdict"], after["facets"], after["ridges"]) == (before["verdict"], 2, 1)
        before, after = report("balance", path), report("balance", out_path)
        assert (after["balanced"], after["ridges"]) == (before["balanced"], 1)

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


LINE_112_BALANCE = """{
  "balanced": false,
  "ridges": 1,
  "failing": [
    {
      "ridge": "origin",
      "residual": [
        "-1",
        "-1"
      ]
    }
  ]
}
"""

LINE_112_DOT = """graph facet_ridge {
  f0 [shape=box, label="F0: r(-1,-1)"];
  f1 [shape=box, label="F1: r(0,1)"];
  f2 [shape=box, label="F2: r(1,0)"];
  r0 [shape=circle, label="R0: origin"];
  f0 -- r0;
  f1 -- r0;
  f2 -- r0;
}
"""


class TestCliUsageExits:
    @pytest.mark.parametrize("command", [
        ["check"], ["balance"], ["dot"], ["star", "--face", "r0"],
    ], ids=["check", "balance", "dot", "star"])
    def test_impure_fan_file(self, tmp_path, capsys, command):
        # a 2-cone and a 1-cone: a valid file, but not a pure complex
        path = tmp_path / "impure.json"
        path.write_text(json.dumps({
            "ambient_dim": 2, "rays": [[1, 0], [0, 1], [-1, -1]], "vertices": [],
            "lineality": [], "cells": [{"r": [0, 1]}, {"r": [2]}], "weights": [1, 1]}))
        code, out, err = run_cli([command[0], str(path), *command[1:]], capsys)
        assert (code, out, err) == \
            (1, "", "tropicon: invalid complex: facet 1 has dimension 1, expected 2\n")

    @pytest.mark.parametrize("argv, message", [
        (["gen", "bergman-graphic", "0-1,2"], "edge '2' is not of the form u-v"),
        (["gen", "bergman-graphic"], "bergman-graphic needs at least one edge u-v"),
        (["gen", "bergman-uniform", "3"], "usage: gen bergman-uniform R N"),
        (["gen", "normal-fan-cube"], "usage: gen normal-fan-cube D"),
        (["gen", "normal-fan", "a.json", "b.json"], "usage: gen normal-fan <vertices-file>"),
    ], ids=["bad-edge", "no-edge", "uniform-arity", "cube-arity", "normal-fan-arity"])
    def test_gen_usage_errors(self, capsys, argv, message):
        assert run_cli(argv, capsys) == (1, "", f"tropicon: {message}\n")

    @pytest.mark.parametrize("argv, what, raw", [
        (["gen", "bergman-uniform", "2", "0_3"], "N", "0_3"),
        (["gen", "bergman-uniform", "\u0663", "4"], "R", "\u0663"),
        (["gen", "normal-fan-cube", " +2 "], "D", " +2 "),
        (["gen", "bergman-graphic", "\u0660-\u0661,0-2"],
         "endpoint of edge '\u0660-\u0661'", "\u0660"),
        (["gen", "bergman-graphic", "0-1,1-\u0662"], "endpoint of edge '1-\u0662'", "\u0662"),
        (["check", "plane.json", "--k", " 0_2"], "--k", " 0_2"),
        (["check", "plane.json", "--k", "-1"], "--k", "-1"),
    ], ids=["underscore", "arabic-indic-R", "signed-spaced-D", "arabic-indic-edge",
            "arabic-indic-endpoint", "spaced-k", "negative-k"])
    def test_integers_take_ascii_digits_only(self, tmp_path, capsys, monkeypatch, argv,
                                             what, raw):
        # int() takes all of these; each would build or check something
        monkeypatch.chdir(tmp_path)
        run_cli(["gen", "tropical-plane", "-o", "plane.json"], capsys)
        message = f"{what} must be written in the digits 0-9, not {raw!r}"
        assert run_cli(argv, capsys) == (1, "", f"tropicon: {message}\n")

    @pytest.mark.parametrize("spec", ["", " , "])
    def test_empty_face_spec(self, tmp_path, capsys, spec):
        path = tmp_path / "cube.json"
        run_cli(["gen", "normal-fan-cube", "2", "-o", str(path)], capsys)
        assert run_cli(["star", str(path), "--face", spec], capsys) == \
            (1, "", "tropicon: empty face spec\n")


class TestLinealityEveryCellContainsFromTheCli:
    """`check` takes k = d - l with l the lineality every cell contains."""

    def test_product_with_an_undeclared_line(self, tmp_path, capsys):
        path, q = tmp_path / "u34r.json", tmp_path / "q.json"
        path.write_text(fan_to_text(u34_times_a_line()))
        code, out, _ = run_cli(["check", str(path)], capsys)
        cert = json.loads(out)
        assert (code, cert["verdict"], cert["k"], cert["d"], cert["lineality_dim"]) == \
            (0, True, 2, 4, 2)
        assert run_cli(["quotient", str(path), "-o", str(q)], capsys)[0] == 0
        code, out, _ = run_cli(["check", str(q)], capsys)
        cert = json.loads(out)
        assert (code, cert["verdict"], cert["k"], cert["lineality_dim"]) == (0, True, 2, 1)

    def test_disjoint_lines_stay_refuted(self, tmp_path, capsys):
        path = tmp_path / "lines.json"
        path.write_text(fan_to_text(disjoint_lines()))
        code, out, _ = run_cli(["check", str(path)], capsys)
        cert = json.loads(out)
        assert (code, cert["verdict"], cert["k"], cert["lineality_dim"], cert["witness"]) == \
            (2, False, 1, 0, [])


class TestLabelsOnlyWhenPrinted:
    @staticmethod
    def counted(monkeypatch):
        calls = []
        real = Polyhedron.label
        monkeypatch.setattr(Polyhedron, "label",
                            lambda self: calls.append(1) or real(self))
        return calls

    def test_balanced_fan_makes_no_label(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "u35.json"
        run_cli(["gen", "bergman-uniform", "3", "5", "-o", str(path)], capsys)
        calls = self.counted(monkeypatch)
        assert run_cli(["check", str(path), "--mincut"], capsys)[0] == 0
        assert run_cli(["balance", str(path)], capsys)[0] == 0
        assert calls == []

    def test_printed_labels_keep_their_text(self, tmp_path, capsys, monkeypatch):
        cones = [Polyhedron.cone([r], ambient_dim=2) for r in ([1, 0], [0, 1], [-1, -1])]
        path = tmp_path / "line.json"
        path.write_text(fan_to_text(Complex.from_facets(cones, weights=(1, 1, 2))))
        calls = self.counted(monkeypatch)
        assert run_cli(["balance", str(path)], capsys)[:2] == (2, LINE_112_BALANCE)
        assert len(calls) == 1  # the one failing ridge
        assert run_cli(["dot", str(path)], capsys)[:2] == (0, LINE_112_DOT)
        assert len(calls) == 1 + 3 + 1  # and every facet and ridge


class TestBalanceTextOnBothNormalPaths:
    """`balance` prints the same text whether lattice normals come from a
    unit ray or from the saturated lattice (`_smith_normal`)."""

    @staticmethod
    def fans():
        cones = [Polyhedron.cone(rays) for rays in (
            [[1, 0], [1, 2]], [[1, 2], [-1, 0]], [[-1, 0], [0, -1]], [[0, -1], [1, 0]])]
        u34 = bergman_fine(Matroid.uniform(3, 4))
        return {
            "line-112": Complex.from_facets(
                [Polyhedron.cone([r], ambient_dim=2) for r in ([1, 0], [0, 1], [-1, -1])],
                weights=(1, 1, 2)),
            "plane-fan-1211": Complex.from_facets(cones, weights=(1, 2, 1, 1)),
            "u34-one-weight-2": Complex(u34.ambient_dim, u34.vertex_pool, u34.ray_pool,
                                        u34.lineality, u34.cells,
                                        (2,) + (1,) * (len(u34) - 1)),
            "sliced": hyperplane_section_fixture(),
        }

    @pytest.mark.parametrize("name", ["line-112", "plane-fan-1211", "u34-one-weight-2",
                                      "sliced"])
    def test_same_text(self, name, tmp_path, capsys, monkeypatch):
        from test_integer_record import _smith_normal
        from tropicon import tropical
        path = tmp_path / "fan.json"
        path.write_text(fan_to_text(self.fans()[name]))
        got = run_cli(["balance", str(path)], capsys)
        monkeypatch.setattr(tropical, "_lattice_normal", _smith_normal)
        want = run_cli(["balance", str(path)], capsys)
        assert got == want
        if name != "sliced":
            assert got[0] == 2 and json.loads(got[1])["failing"]


def test_console_script_installed():
    proc = subprocess.run([sys.executable, "-m", "tropicon.cli", "gen", "two-planes"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["ambient_dim"] == 5


def test_cached_parser_after_a_usage_error_matches_fresh_processes(tmp_path, capsys):
    # the parser is built once per process, so a usage error must leave
    # nothing behind for the next command
    path = tmp_path / "plane.json"
    assert cli.main(["gen", "tropical-plane", "-o", str(path)]) == 0
    assert cli.build_parser() is cli.build_parser()
    capsys.readouterr()
    for argv in (["check"], ["check", str(path), "--mincut"]):
        code, out, err = run_cli(argv, capsys)
        fresh = subprocess.run([sys.executable, "-m", "tropicon.cli", *argv],
                               capture_output=True, text=True)
        assert (code, out, err) == (fresh.returncode, fresh.stdout, fresh.stderr)
    assert code == 0 and json.loads(out)["verdict"] is True


# fans as `gen` writes them, one with vertices from a slice
CLI_FIXTURES = {
    "two-planes": ["gen", "two-planes"],
    "tropical-plane": ["gen", "tropical-plane"],
    "u34": ["gen", "bergman-uniform", "3", "4"],
    "mk4": ["gen", "bergman-graphic", "0-1,0-2,0-3,1-2,1-3,2-3"],
    "cube3": ["gen", "normal-fan-cube", "3"],
    "slice": None,
}


@pytest.fixture(scope="module")
def cli_fixture_texts():
    texts = {}
    for name, argv in CLI_FIXTURES.items():
        texts[name] = (fan_to_text(hyperplane_section_fixture()) if argv is None
                       else _cli_stdout(argv))
    return texts


def _cli_stdout(argv):
    out = io.StringIO()
    with redirect_stdout(out):
        assert cli.main(argv) == 0
    return out.getvalue()


def _mutate(rng, obj, kind):
    """One seeded damage of a fan object: drop a key, put a value of the
    wrong type, point a cell past its pool, write '1/0' into a number."""
    if kind == "drop":
        del obj[rng.choice(sorted(obj))]
    elif kind == "type":
        key = rng.choice(sorted(obj))
        junk = rng.choice([None, True, 1.5, "x", {}, [None], [[{}]], -1])
        if isinstance(obj[key], list) and obj[key] and rng.random() < 0.5:
            obj[key][rng.randrange(len(obj[key]))] = junk
        else:
            obj[key] = junk
    elif kind == "index":
        cell = rng.choice(obj["cells"])
        pool = rng.choice(["v", "r"])
        cell[pool] = cell.get(pool, []) + [rng.choice([-1, 10 ** 6])]
    elif kind == "zero-denominator":
        rows = [row for key in ("rays", "vertices", "lineality")
                for row in obj[key]]
        if rows and rng.random() < 0.8:
            row = rng.choice(rows)
            row[rng.randrange(len(row))] = "1/0"
        else:
            obj["weights"][0] = "1/0"
    return obj


class TestCliRobustness:
    @pytest.mark.parametrize("name", sorted(CLI_FIXTURES))
    def test_load_print_load_print_keeps_the_bytes(self, tmp_path, cli_fixture_texts,
                                                   name):
        path = tmp_path / "fan.json"
        path.write_text(cli_fixture_texts[name])
        first = fan_to_text(load_fan(str(path)))
        path.write_text(first)
        assert fan_to_text(load_fan(str(path))) == first == cli_fixture_texts[name]

    def test_damaged_fan_files_exit_1_without_traceback(self, tmp_path, capsys,
                                                      cli_fixture_texts):
        rng = random.Random(7)
        kinds = ("drop", "type", "index", "zero-denominator", "truncate")
        path = tmp_path / "damaged.json"
        for i in range(300):
            name = rng.choice(sorted(cli_fixture_texts))
            text = cli_fixture_texts[name]
            kind = kinds[i % len(kinds)]
            if kind == "truncate":  # cut before the closing brace
                text = text[:rng.randrange(len(text) - 2)]
            else:
                text = json.dumps(_mutate(rng, json.loads(text), kind))
            path.write_text(text)
            command = ("check", "balance", "dot")[i % 3]
            code, _, err = run_cli([command, str(path)], capsys)
            assert code == 1 and "Traceback" not in err, (command, text)
