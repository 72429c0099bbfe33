"""One pool invariant, checked by one constructor.

Every complex holds the fan file's pool invariant: `Complex(...)` rejects,
with the loader's messages, a pool or cells that break it, whether the
loader or a builder calls it.  `Complex.pooled` turns candidate pools plus
index cells into that invariant, and `Complex.from_facets`,
`quotient_by_lineality` and `star` end in it.  So whatever is built loads
back from its own text: rays equal modulo the lineality are one pool ray,
rays inside it are none, a cell repeats no index and no two cells are
identical.  The per-cell projection `_project_cells` ran before it (one
`Polyhedron` per cell, re-pooled through `from_facets`) is kept here as an
oracle.
"""

import itertools
import json
import random
import re
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings, strategies as st

from test_golden import RATIONAL_COMPLEX
from test_integer_record import assert_loads_back
from test_tropical import (
    _derived_weight_fans, _drawn_hyperplanes, _ray_faces, _section_fixtures,
    u34_times_a_line,
)
from tropicon import cli
from tropicon.fanjson import fan_from_obj, fan_from_text, fan_to_text
from tropicon.matroid import Matroid, bergman_fine
from tropicon.polyhedral import Complex, Polyhedron, is_face_of
from tropicon.ratlin import is_zero, lattice_complement_projection, mat_vec, vec
from tropicon.tropical import (
    NotTransverse, cube_normal_fan, hyperplane_section, normal_fan, quotient_by_lineality,
    skeleton, standard_tropical_plane, star, two_planes_fan,
)


def found_96():
    """Two cones that share the lineality (0, 0, 1), one given with the ray
    (1, 0, 1): it equals (1, 0, 0) modulo the lineality."""
    e3 = [[0, 0, 1]]
    return Complex.from_facets([Polyhedron.cone([[1, 0, 0], [0, 1, 0]], e3),
                                Polyhedron.cone([[1, 0, 1], [0, -1, 0]], e3)], lineality=e3)


class TestFromFacets:
    def test_rays_equal_modulo_the_lineality_are_one_pool_ray(self):
        c = found_96()
        assert c.ray_pool == (vec([1, 0, 0]), vec([0, 1, 0]), vec([0, -1, 0]))
        assert c.cells == (((), (0, 1)), ((), (0, 2)))
        assert_loads_back(c)

    def test_found_96_passes_check_and_quotient(self, tmp_path, capsys):
        path, q = tmp_path / "f.json", tmp_path / "q.json"
        path.write_text(fan_to_text(found_96()))
        assert cli.main(["check", str(path)]) == 0
        cert = json.loads(capsys.readouterr().out)
        assert (cert["verdict"], cert["k"], cert["lineality_dim"]) == (True, 2, 1)
        assert cli.main(["quotient", str(path), "-o", str(q)]) == 0
        assert fan_from_text(q.read_text()).ray_pool == (vec([-1, 0]), vec([0, 1]), vec([1, 0]))

    @pytest.mark.parametrize("vertices,pool,cell", [
        ([[0], [0]], (vec([0]),), (0,)),
        ([[0, 0], [1, 0], [0, 1], [0, 0]], (vec([0, 0]), vec([1, 0]), vec([0, 1])), (0, 1, 2)),
        ([["1/2", 1], [1, 0], ["2/4", "3/3"]], (vec(["1/2", 1]), vec([1, 0])), (0, 1)),
    ], ids=["point", "triangle", "rational"])
    def test_a_vertex_given_twice_is_one_index(self, vertices, pool, cell):
        c = Complex.from_facets([Polyhedron(len(vertices[0]), tuple(map(vec, vertices)))])
        assert (c.vertex_pool, c.cells) == (pool, ((cell, ()),))
        assert_loads_back(c)

    @pytest.mark.parametrize("facets", [
        [[[1, 0]], [[1, 0]]],
        [[[1, 0], [0, 1]], [[0, 2], [3, 0], [0, 1]], [[0, 1], [-1, 0]]],
    ], ids=["same-rays", "scaled-and-repeated"])
    def test_identical_cells_raise_the_loaders_message(self, facets):
        # the loader rejects the text that pooling the repeated cell would write
        cones = [Polyhedron.cone(rays, ambient_dim=2) for rays in facets]
        with pytest.raises(ValueError, match="^cells 0 and 1 are identical$"):
            Complex.from_facets(cones)
        with pytest.raises(ValueError, match="^cells 0 and 1 are identical$"):
            fan_from_obj({"ambient_dim": 2, "rays": [[1, 0]], "vertices": [], "lineality": [],
                          "cells": [{"r": [0]}, {"r": [0]}], "weights": [1, 1]})


def _bad(n, rays, cells, vertices=(), lineality=(), message="", file_message=None):
    return n, vertices, rays, lineality, cells, message, file_message or message


# each complex breaks one part of the invariant; the file repros are the
# FOUND fan whose ray lies in its lineality, the fan repeating a vertex and
# the rational lineality row, which a caller gave and the writer could not write
BAD_COMPLEXES = {
    "zero-ray": _bad(2, [[0, 0], [0, 1]], [((), (0, 1))],
                     message="ray [0, 0] is not a primitive nonzero vector"),
    "non-primitive-ray": _bad(2, [[2, 0], [0, 1]], [((), (0, 1))],
                              message="ray [2, 0] is not a primitive nonzero vector"),
    # a file's rays and lineality rows are integer rows, so its parser names
    # the entry as written
    "rational-ray": _bad(2, [["1/2", 0], [0, 1]], [((), (0, 1))],
                         message="ray [1/2, 0] is not an integer vector",
                         file_message="ray entry '1/2' is not an integer"),
    "rational-lineality": _bad(2, [[1, 0]], [((), (0,))], lineality=[["1/2", "1/2"]],
                               message="lineality row [1/2, 1/2] is not an integer vector",
                               file_message="lineality entry '1/2' is not an integer"),
    "ray-in-the-lineality": _bad(2, [[1, 0], [0, 1]], [((), (1,)), ((), (0, 1))],
                                 lineality=[[1, 0]], message="ray [1, 0] lies in the lineality"),
    "rays-equal-modulo-the-lineality": _bad(
        2, [[1, 0], [2, 1]], [((), (0,)), ((), (1,))], lineality=[[1, 1]],
        message="rays [1, 0] and [2, 1] are equal modulo the lineality"),
    "dependent-lineality": _bad(3, [[1, 0, 0]], [((), (0,))], lineality=[[0, 1, 1], [0, -2, -2]],
                                message="lineality rows are zero or linearly dependent"),
    "repeated-vertex": _bad(1, [[1]], [((0,), (0,)), ((1,), (0,))], vertices=[["0"], ["0"]],
                            message="vertex [0] is repeated in the pool"),
    "index-outside-the-pools": _bad(2, [[1, 0], [0, 1]], [((), (0, 2))],
                                    message="cell references an index outside the pools"),
    "vertex-index-outside-the-pools": _bad(1, [[1]], [((1,), (0,))], vertices=[["0"]],
                                           message="cell references an index outside the pools"),
    "negative-index": _bad(2, [[1, 0], [0, 1]], [((), (-1, 0))],
                           message="cell references an index outside the pools"),
    "repeated-index": _bad(2, [[1, 0], [0, 1]], [((), (0, 1)), ((), (0, 1, 1))],
                           message="cell 1 repeats an index"),
    "identical-cells": _bad(2, [[1, 0], [0, 1]], [((), (0, 1)), ((), (1, 0))],
                            message="cells 0 and 1 are identical"),
}


class TestOneInvariant:
    @pytest.mark.parametrize("name", BAD_COMPLEXES)
    def test_memory_file_and_command_line_reject_alike(self, name, tmp_path, capsys):
        n, vertices, rays, lineality, cells, message, file_message = BAD_COMPLEXES[name]
        with pytest.raises(ValueError) as info:
            Complex(n, tuple(map(vec, vertices)), tuple(map(vec, rays)),
                    tuple(map(vec, lineality)), tuple(cells))
        assert str(info.value) == message
        obj = {"ambient_dim": n, "rays": rays, "vertices": list(vertices),
               "lineality": list(lineality),
               "cells": [{"v": list(v), "r": list(r)} for v, r in cells],
               "weights": [1] * len(cells)}
        with pytest.raises(ValueError) as info:
            fan_from_obj(obj)
        assert str(info.value) == file_message
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(obj))
        assert cli.main(["check", str(path)]) == 1
        out, err = capsys.readouterr()
        assert (out, err) == ("", f"tropicon: {file_message}\n")

    def test_the_in_memory_repros(self):
        # pools given as int rows, as a builder may give them
        for rays, cells, message in [
                (((2, 0), (0, 1)), (((), (0, 1)),), "ray [2, 0] is not a primitive nonzero vector"),
                (((F(1, 2), 0), (0, 1)), (((), (0, 1)),), "ray [1/2, 0] is not an integer vector"),
                (((1, 0), (0, 1)), (((), (0, 1, 1)),), "cell 0 repeats an index")]:
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                Complex(2, (), rays, (), cells)

    def test_the_complex_keeps_the_forms_it_checks(self):
        # two ways of writing one vertex are one vertex
        with pytest.raises(ValueError, match=r"^vertex \[1/2\] is repeated in the pool$"):
            Complex(1, (("1/2",), ("2/4",)), ((1,),), (), (((0,), (0,)), ((1,), (0,))))
        # the message names the vertex that repeats, not the first one
        with pytest.raises(ValueError, match=r"^vertex \[1/2\] is repeated in the pool$"):
            Complex(1, ((0,), ("1/2",), ("2/4",)), (), (), (((0,), ()), ((1,), ()), ((2,), ())))
        # int rows come back as fraction rows, so arithmetic on them is exact
        c = Complex(2, ((0, 0),), ((1, 0), (0, 1)), (), (((0,), (0, 1)),))
        assert all(type(x) is F for g in c.vertex_pool + c.ray_pool for x in g)
        assert c.ray_pool[0][0] / 2 == F(1, 2)
        # the lineality is its canonical basis, the one every cell receives
        c = Complex(3, (), ((1, 0, 0),), ((0, 0, 2),), (((), (0,)),))
        assert c.lineality == ((0, 0, 1),) == c.facet_polyhedra[0].lineality
        assert all(type(x) is F for x in c.lineality[0])

    def test_a_file_writes_the_canonical_lineality(self):
        obj = {"ambient_dim": 2, "rays": [[1, 0]], "vertices": [], "lineality": [[0, 2]],
               "cells": [{"r": [0]}], "weights": [1]}
        assert json.loads(fan_to_text(fan_from_obj(obj)))["lineality"] == [[0, 1]]

    @pytest.mark.parametrize("rays,lineality,message", [
        ([["1.0", "+0"], ["0", "2/2"]], [], "ray entry '1.0' is not an integer"),
        ([[1, 0], ["+0", 1]], [], "ray entry '+0' is not an integer"),
        ([[1, 0, 0]], [[0, "2/2", 0]], "lineality entry '2/2' is not an integer"),
    ], ids=["decimal-ray", "signed-ray", "fraction-lineality"])
    def test_a_file_writes_its_integers_as_integers(self, rays, lineality, message, tmp_path,
                                                    capsys):
        # the rows are integral in memory, but a file writes an integer -?[0-9]+
        n = len(rays[0])
        Complex(n, (), tuple(map(vec, rays)), tuple(map(vec, lineality)), (((), (0,)),))
        path = tmp_path / "f.json"
        path.write_text(json.dumps({"ambient_dim": n, "rays": rays, "vertices": [],
                                    "lineality": lineality, "cells": [{"r": [0]}],
                                    "weights": [1]}))
        assert cli.main(["check", str(path)]) == 1
        assert capsys.readouterr() == ("", f"tropicon: {message}\n")


def _seeded_matroids(rng):
    """Uniform, graphic and linear matroids without loops."""
    for n in (3, 4, 5, 6):
        yield Matroid.uniform(rng.randint(1, min(4, n)), n)
        edges = [(u, (u + rng.randint(1, 4)) % 5) for u in rng.choices(range(5), k=n)]
        yield Matroid.graphic(edges)
        rows = rng.randint(2, 4)
        yield Matroid.linear([[rng.randint(-2, 2) for _ in range(rows - 1)] + [rng.randint(1, 2)]
                              for _ in range(n)])


def _seeded_point_sets(rng):
    """Point sets in R^1 to R^3 with hulls of every dimension: a point plus
    small combinations of k drawn directions, k = 0 .. n, twice each."""
    for n, k, _ in itertools.product((1, 2, 3), range(4), range(2)):
        if k <= n:
            base = [rng.randint(-2, 2) for _ in range(n)]
            dirs = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(k)]
            weights = [[rng.randint(-2, 2) for _ in dirs] for _ in range(6)]
            yield [[b + sum(w * d[i] for w, d in zip(ws, dirs)) for i, b in enumerate(base)]
                   for ws in weights]


def _direct_constructions():
    rng = random.Random(42)
    built = [(f"bergman-{i}", bergman_fine(m)) for i, m in enumerate(_seeded_matroids(rng))]
    built += [(f"normal-fan-{i}", normal_fan(p)) for i, p in enumerate(_seeded_point_sets(rng))]
    built += [(f"cube-{d}", cube_normal_fan(d)) for d in range(1, 5)]
    return built + [("tropical-plane", standard_tropical_plane()),
                    ("two-planes", two_planes_fan())]


DIRECT = _direct_constructions()


@pytest.mark.parametrize("name,c", DIRECT, ids=[name for name, _ in DIRECT])
def test_direct_constructions_load_back(name, c):
    # the builders that call Complex(...) directly are checked by it
    assert_loads_back(c)


class TestPooled:
    def test_the_first_ray_given_stays(self):
        rays = [vec([1, 0, 1]), vec([2, 0, 0]), vec([0, 0, -3]), vec([0, 1, 0])]
        c = Complex.pooled(3, [], rays, [vec([0, 0, 2])], [((), (0, 2)), ((), (3, 2))])
        assert (c.ray_pool, c.lineality) == ((vec([1, 0, 1]), vec([0, 1, 0])), (vec([0, 0, 1]),))
        assert c.cells == (((), (0,)), ((), (1,)))
        with pytest.raises(ValueError, match="^cells 0 and 1 are identical$"):
            Complex.pooled(3, [], c.ray_pool + (vec([2, 0, 0]),), c.lineality,
                           [((), (0,)), ((), (2,))])

    def test_unused_entries_go(self):
        rays = [vec([1, 0]), vec([0, 1]), vec([1, 1])]
        c = Complex.pooled(2, [vec([5, 5]), vec([0, 0])], rays, [], [((1,), (2,)), ((1,), (0,))],
                           (2, 3))
        assert (c.vertex_pool, c.ray_pool) == ((vec([0, 0]),), (vec([1, 1]), vec([1, 0])))
        assert (c.cells, c.weights) == ((((0,), (0,)), ((0,), (1,))), (2, 3))

    @pytest.mark.parametrize("name,c", [(name, c) for name, c, _ in _section_fixtures()],
                             ids=[name for name, _, _ in _section_fixtures()])
    def test_a_loaded_complex_pools_to_itself(self, name, c):
        # a loaded complex already holds the invariants: pooling it again
        # only renumbers its entries in the order the cells first use them
        derived = Complex.pooled(c.ambient_dim, c.vertex_pool, c.ray_pool, c.lineality,
                                 c.cells, c.weights)
        assert fan_to_text(derived) == fan_to_text(c)
        assert_loads_back(derived)


# ---------------------------------------------------------------------------
# derived complexes


def _fixtures():
    fixtures = [(name, c) for name, c, _ in _section_fixtures()]
    fixtures += [(f"derived-{i}", c) for i, c in enumerate(_derived_weight_fans())]
    fixtures += [("rational", fan_from_obj(RATIONAL_COMPLEX)), ("u34xR", u34_times_a_line()),
                 ("U(4,6)", bergman_fine(Matroid.uniform(4, 6)))]
    return fixtures


FIXTURES = _fixtures()


def _star_faces(c):
    """The faces the oracles take stars at: every ray of a fan that is a
    face of a cell, and every ridge; none of a complex with vertices."""
    if c.vertex_pool:
        return []
    rays = [r for r in _ray_faces(c) if any(is_face_of(r, f) for f in c.facet_polyhedra)]
    return rays + [face for face, _, _ in c.ridges]


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_derived_complexes_load_back(data):
    name, c = data.draw(st.sampled_from(FIXTURES), label="fixture")
    kind = data.draw(st.sampled_from(["quotient", "star", "skeleton", "section"]))
    if kind == "quotient":
        d = quotient_by_lineality(c)[0]
    elif kind == "star":
        faces = _star_faces(c)
        assume(faces)
        d = star(c, data.draw(st.sampled_from(faces)))
    elif kind == "skeleton":
        d = skeleton(c, data.draw(st.integers(c.lineality_dim, c.dim)))
    else:
        try:
            d = hyperplane_section(c, data.draw(_drawn_hyperplanes(c.ambient_dim))).section
        except NotTransverse:
            assume(False)
    assert_loads_back(d)


def per_cell_projection(c, ids, proj):
    """The cells of c with the given ids projected by proj, one `Polyhedron`
    per cell, as `_project_cells` built them before it mapped each pool
    entry once, with their weights."""
    def image(gens):
        return tuple(g2 for g in gens if not is_zero(g2 := mat_vec(proj, g)))

    lin = image(c.lineality)
    cells = [Polyhedron(len(proj), tuple(mat_vec(proj, c.vertex_pool[j]) for j in vidx),
                        image(c.ray_pool[j] for j in ridx), lin)
             for vidx, ridx in map(c.cells.__getitem__, ids)]
    return [p.canonical_key for p in cells], [c.weights[i] for i in ids]


def _keys(d):
    return [p.canonical_key for p in d.facet_polyhedra], list(d.weights)


@pytest.mark.parametrize("name,c", FIXTURES, ids=[name for name, _ in FIXTURES])
def test_projection_against_the_per_cell_oracle(name, c):
    if c.lineality:
        q, proj = quotient_by_lineality(c)
        assert _keys(q) == per_cell_projection(c, range(len(c)), proj)
    for face in _star_faces(c)[:40]:
        ids = [i for i, f in enumerate(c.facet_polyhedra) if is_face_of(face, f)]
        proj = lattice_complement_projection(face.direction_span, c.ambient_dim)
        assert _keys(star(c, face)) == per_cell_projection(c, ids, proj), face.label()
