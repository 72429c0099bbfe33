"""Acceptance suite: one test per criterion, printing a pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the criterion lines.
Every expected value is exact; runtime limits are asserted where stated.
"""

import json
import random
import time
from collections import Counter
from fractions import Fraction as F

import pytest

from test_polyhedral import fm_feasible, hrep, satisfies
from test_tropical import same_fan
from tropicon import cli
from tropicon.connectivity import (
    build_hypergraph, connected_components, is_k_connected, min_facet_cut,
)
from tropicon.fanjson import load_fan
from tropicon.matroid import Matroid, bergman_fine, contraction, proper_flats
from tropicon.polyhedral import AffineHyperplane, Complex, Polyhedron, _feasible_point
from tropicon.ratlin import (
    _int_kernel, is_zero, lattice_complement_projection, mat, mat_vec, vec,
)
from tropicon.tropical import (
    balancing_check, check_witness_hyperplane, cube_normal_fan,
    hyperplane_section, normal_fan, quotient_by_lineality, skeleton,
    standard_tropical_plane, star, two_planes_fan, witness_hyperplane,
)

K4_EDGES = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]


def report(criterion, ok):
    print(f"\n[{'PASS' if ok else 'FAIL'}] {criterion}")
    assert ok


def random_3_polytopes(count=5, max_vertices=10, seed=20240601):
    rng = random.Random(seed)
    polys = []
    while len(polys) < count:
        pts = [[F(rng.randint(-8, 8), rng.randint(1, 3)) for _ in range(3)]
               for _ in range(rng.randint(4, max_vertices))]
        fan = normal_fan(pts)
        if fan.dim == 3 and fan.lineality_dim == 0 and len(fan) >= 4:
            polys.append(fan)
    return polys


def test_criterion_1_two_planes_regression(tmp_path, capsys):
    start = time.time()
    path = tmp_path / "tp.json"
    assert cli.main(["gen", "two-planes", "-o", str(path)]) == 0
    capsys.readouterr()

    code2 = cli.main(["check", str(path), "--k", "2", "--mincut"])
    cert2 = json.loads(capsys.readouterr().out)
    code1 = cli.main(["check", str(path), "--k", "1"])
    cert1 = json.loads(capsys.readouterr().out)

    fan = load_fan(str(path))
    e1 = vec([1, 0, 0, 0, 0])
    witness_contains_e1 = (len(cert2["witness"]) == 1 and
                           fan.facet_polyhedra[cert2["witness"][0]].contains_point(e1))
    elapsed = time.time() - start
    ok = (code2 == 2 and cert2["verdict"] is False and witness_contains_e1
          and cert2["mincut_size"] == 1
          and code1 == 0 and cert1["verdict"] is True
          and elapsed < 1.0)
    report(f"criterion 1: two-planes regression (k=2 false with e1 witness, "
           f"k=1 true, mincut 1) in {elapsed:.2f}s", ok)


def test_criterion_2_connectivity_suite():
    start = time.time()
    cases = [
        ("bergman U(2,3), k=1", bergman_fine(Matroid.uniform(2, 3)), 1),
        ("bergman U(3,4), k=2", bergman_fine(Matroid.uniform(3, 4)), 2),
        ("bergman U(4,5), k=3", bergman_fine(Matroid.uniform(4, 5)), 3),
        ("bergman graphic K4, k=2", bergman_fine(Matroid.graphic(K4_EDGES)), 2),
        ("cube normal fan, k=3", cube_normal_fan(3), 3),
        ("cube 2-skeleton, k=2", skeleton(cube_normal_fan(3), 2), 2),
    ]
    for i, fan in enumerate(random_3_polytopes()):
        cases.append((f"random 3-polytope #{i + 1}, k=3", fan, 3))
    results = []
    for label, fan, k in cases:
        assert fan.dim - fan.lineality_dim == k, label
        cert = is_k_connected(build_hypergraph(fan), k)
        results.append((label, cert.verdict, cert.subsets_examined))
    elapsed = time.time() - start
    u45 = next(r for r in results if "U(4,5)" in r[0])
    ok = all(v for _, v, _ in results) and u45[2] == 1770 and elapsed < 60.0
    lines = ", ".join(f"{label}: {'ok' if v else 'FAIL'}" for label, v, _ in results)
    report(f"criterion 2: suite verdicts ({lines}) in {elapsed:.1f}s", ok)


def test_criterion_3_sharpness():
    cases = [
        ("bergman U(2,3)", bergman_fine(Matroid.uniform(2, 3)), 1),
        ("bergman U(3,4)", bergman_fine(Matroid.uniform(3, 4)), 2),
        ("cube normal fan", cube_normal_fan(3), 3),
        ("cube 2-skeleton", skeleton(cube_normal_fan(3), 2), 2),
    ]
    results = []
    for label, fan, expected in cases:
        assert fan.dim - fan.lineality_dim == expected
        size, witness = min_facet_cut(build_hypergraph(fan))
        results.append((label, size, expected))
    ok = all(size == expected for _, size, expected in results)
    report("criterion 3: min cuts equal d - l exactly "
           + str([(l, s) for l, s, _ in results]), ok)


def test_criterion_4_star_contraction():
    m = Matroid.graphic(K4_EDGES)
    b = bergman_fine(m)
    n = len(m.elements)
    ones = vec([1] * n)
    singleton_flats = proper_flats(m)[1]
    assert len(singleton_flats) == 6
    matches = []
    for flat in singleton_flats:
        e = min(flat.elements)
        ray = vec([1 if x in flat.elements else 0 for x in m.elements])
        face = Polyhedron.cone([ray], [ones], ambient_dim=n)
        st = star(b, face)

        mc = contraction(m, e)
        bc = bergman_fine(mc)
        proj = lattice_complement_projection(face.direction_span, n)
        target = n - face.dim

        def embed(v):
            out = [F(0)] * n
            for x, lbl in zip(v, mc.elements):
                out[m.elements.index(lbl)] = x
            return vec(out)

        facets = []
        for f in bc.facet_polyhedra:
            rays = [mat_vec(proj, embed(r)) for r in f.rays]
            lin = [mat_vec(proj, embed(l)) for l in f.lineality]
            facets.append(Polyhedron(target, (),
                                     tuple(r for r in rays if not is_zero(r)),
                                     tuple(l for l in lin if not is_zero(l))))
        expected = Complex.from_facets(facets, lineality=(), ambient_dim=target)
        matches.append(same_fan(st, expected))
    report("criterion 4: star at each of the 6 singleton-flat rays equals the "
           f"contraction's Bergman fan ({sum(matches)}/6)", all(matches))


def test_criterion_5_quotient_invariance():
    results = []
    for label, m in [("U(2,3)", Matroid.uniform(2, 3)),
                     ("U(3,4)", Matroid.uniform(3, 4)),
                     ("K4", Matroid.graphic(K4_EDGES))]:
        b = bergman_fine(m)
        q, _ = quotient_by_lineality(b)
        h1, h2 = build_hypergraph(b), build_hypergraph(q)
        same = (h1.num_facets == h2.num_facets and
                Counter(h1.hyperedges) == Counter(h2.hyperedges))
        results.append((label, same))
    report("criterion 5: facet-ridge hypergraphs invariant under lineality "
           f"quotient {results}", all(s for _, s in results))


def test_criterion_6_balancing():
    balanced_fans = [
        ("bergman U(2,3)", bergman_fine(Matroid.uniform(2, 3))),
        ("bergman U(3,4)", bergman_fine(Matroid.uniform(3, 4))),
        ("bergman K4", bergman_fine(Matroid.graphic(K4_EDGES))),
        ("two-planes", two_planes_fan()),
        ("cube normal fan", cube_normal_fan(3)),
        ("triangle normal fan", normal_fan([[0, 0], [1, 0], [0, 1]])),
    ]
    all_balanced = all(balancing_check(f).balanced
                       for _, f in balanced_fans)
    line = Complex.from_facets(
        [Polyhedron.cone([r], ambient_dim=2) for r in ([1, 0], [0, 1], [-1, -1])],
        weights=(1, 1, 2))
    bad = balancing_check(line)
    perturbed_fails = (not bad.balanced and len(bad.failing()) == 1
                       and bad.failing()[0].residual == vec([-1, -1]))
    report("criterion 6: generated fans balanced; weight-2 tropical line fails "
           "with residual (-1,-1)", all_balanced and perturbed_fails)


def test_criterion_7_sections():
    plane = standard_tropical_plane()
    sec = hyperplane_section(plane, AffineHyperplane(vec([1, 2, 4]), F(1)))
    h = build_hypergraph(sec.section)
    plane_ok = (len(sec.section) == 6 and sec.pure and sec.section.dim == 1
                and h.num_ridges == 3 and len(connected_components(h)) == 1)

    sec2 = hyperplane_section(two_planes_fan(),
                              AffineHyperplane(vec([1, 0, 0, 0, 0]), F(-1)))
    comps = connected_components(build_hypergraph(sec2.section))
    planes_ok = len(comps) == 2
    report("criterion 7: tropical-plane slice 6 facets / 3 ridges connected; "
           "two-planes slice splits into 2 components", plane_ok and planes_ok)


def test_criterion_8_witness_hyperplane():
    start = time.time()
    P = Polyhedron.cone([[0, 1, 0, 0, 0], [0, 0, 1, 0, 0]])
    Q = Polyhedron.cone([[0, 0, 0, 1, 0], [0, 0, 0, 0, 1]])
    Fc = Polyhedron.cone([[1, 0, 0, 0, 0], [0, 1, 0, 0, 0]])
    H = witness_hyperplane(P, Q, Fc)
    found = H is not None and check_witness_hyperplane(P, Q, Fc, H)

    P1 = Polyhedron.from_vertices([[0], [1]])
    F1 = Polyhedron.from_vertices([[1], [2]])
    Q1 = Polyhedron.from_vertices([[2], [3]])
    none_found = witness_hyperplane(P1, Q1, F1) is None
    elapsed = time.time() - start
    report(f"criterion 8: two-planes triple witnessed and verified, interval "
           f"triple has none, in {elapsed:.2f}s",
           found and none_found and elapsed < 1.0)


def test_criterion_9_kernel_properties():
    rng = random.Random(90210)
    rank_ok = True
    for _ in range(200):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        A = mat([[F(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(cols)]
                 for _ in range(rows)])
        pivots, kernel = _int_kernel(A)
        rank_ok &= (len(pivots) + len(kernel) == cols)
        rank_ok &= all(is_zero(mat_vec(A, vec(k))) for k in kernel)

    round_trip_ok = True
    for _ in range(50):
        n = rng.randint(1, 4)
        rays = [[rng.randint(-5, 5) for _ in range(n)]
                for _ in range(rng.randint(1, n + 2))]
        rays = [r for r in rays if any(r)]
        if not rays:
            continue
        p = Polyhedron.cone(rays, ambient_dim=n)
        q = Polyhedron.from_hrep(hrep(p))
        round_trip_ok &= (q.canonical_key == p.canonical_key)

    feasibility_ok = True
    witnesses = 0
    for _ in range(60):
        nvars = rng.randint(1, 4)
        cons = [(vec([rng.randint(-3, 3) for _ in range(nvars)]),
                 F(rng.randint(-2, 2)), rng.choice(["=", ">=", ">"]))
                for _ in range(rng.randint(1, 5))]
        w = _feasible_point(nvars, cons)
        feasibility_ok &= (w is not None) == fm_feasible(nvars, cons)
        if w is not None:
            witnesses += 1
            feasibility_ok &= satisfies(w, cons)
    report(f"criterion 9: 200 rank-nullity checks, 50 V->H->V round trips, "
           f"60 strict-feasibility verdicts equal Fourier-Motzkin's, "
           f"{witnesses} points verified by substitution",
           rank_ok and round_trip_ok and feasibility_ok and witnesses > 0)


def test_criterion_10_consistency():
    fans = [
        ("two-planes", two_planes_fan()),
        ("bergman U(2,3)", bergman_fine(Matroid.uniform(2, 3))),
        ("bergman U(3,4)", bergman_fine(Matroid.uniform(3, 4))),
        ("bergman K4", bergman_fine(Matroid.graphic(K4_EDGES))),
        ("cube normal fan", cube_normal_fan(3)),
        ("cube 2-skeleton", skeleton(cube_normal_fan(3), 2)),
    ]
    ok = True
    sizes = []
    for label, fan in fans:
        h = build_hypergraph(fan)
        cut = min_facet_cut(h)
        assert cut is not None, label
        s = cut[0]
        sizes.append((label, s))
        for k in range(1, s + 2):
            ok &= (is_k_connected(h, k).verdict == (k <= s))
    report(f"criterion 10: mincut/k-connectivity consistency on {sizes}", ok)
