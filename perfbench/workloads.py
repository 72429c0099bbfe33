"""Seeded inputs, command streams and output checks for each workload.

A workload makes its inputs from the seed once, during set-up, as a list of
pass specifications; no input repeats within a process.  A pass runs the
`tropicon` commands of one specification through `run(kind, argv, check)`
and checks every output against the oracles in `oracle.py`.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import oracle
from oracle import expect

# 2-connected graphs: their graphic matroids are connected, of rank |V| - 1
C4 = ((0, 1), (1, 2), (2, 3), (0, 3))
DIAMOND = ((0, 1), (0, 2), (1, 2), (1, 3), (2, 3))
K4 = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
C5 = ((0, 1), (1, 2), (2, 3), (3, 4), (0, 4))


def draw_graphic(rng: random.Random, seen: set, base, max_edges: int,
                 gluable: bool = False) -> tuple:
    """The graphic matroid of `base` plus parallel copies of random edges,
    up to max_edges edges, shuffled so the coordinates differ; never a
    matroid drawn before.  Parallel edges change the ground set, not the
    lattice of flats, so the cost stays that of `base`.  A gluable matroid
    has a coordinate ray to glue along (see oracle.glue)."""
    while True:
        edges = list(base)
        for _ in range(rng.randint(0, max_edges - len(edges))):
            edges.append(rng.choice(edges))
        rng.shuffle(edges)
        spec = ("graphic", tuple(edges))
        if (not gluable or oracle.singleton_flats(spec)) and _fresh(spec, seen):
            return spec


def _fresh(spec, seen: set) -> bool:
    sig = oracle.circuit_signature(spec)
    if sig in seen:
        return False
    seen.add(sig)
    return True


def gen_argv(spec, path) -> list[str]:
    if spec[0] == "uniform":
        return ["gen", "bergman-uniform", str(spec[1]), str(spec[2]), "-o", str(path)]
    edges = ",".join(f"{u}-{v}" for u, v in spec[1])
    return ["gen", "bergman-graphic", edges, "-o", str(path)]


def _check_fan_cells(path, cells: int, dim: int) -> None:
    """The fan file has `cells` cells in ambient dimension `dim`, no lineality."""
    fan = oracle.read_fan(path)
    expect(fan["ambient_dim"] == dim, f"ambient_dim {fan['ambient_dim']} != {dim}")
    expect(len(fan["cells"]) == cells, f"{len(fan['cells'])} cells, expected {cells}")
    expect(fan["lineality"] == [], "unexpected lineality")


def _writes_fan(path, cells: int, dim: int):
    """Check for a command that exits 0 and writes such a fan to `path`."""
    def check(rc, out):
        expect(rc == 0, f"exit {rc}")
        _check_fan_cells(path, cells, dim)
    return check


class Workload:
    name = ""
    cmd_kinds: tuple[str, ...] = ()   # the commands whose latency is cmd_s
    per_pass: dict[str, int] = {}     # commands of each kind in one pass
    nominal_pass_s = 1.0              # one pass at the reference commit and host

    def passes(self, seconds: float) -> int:
        """Passes in a run of about `seconds` at the reference speed; the
        count depends on the arguments only, so every run does equal work."""
        return max(2, round(seconds / self.nominal_pass_s))

    def make_inputs(self, seed: int, work: Path, n_passes: int) -> list:
        raise NotImplementedError

    def run_pass(self, index: int, spec, run, work: Path) -> None:
        raise NotImplementedError


class Bergman(Workload):
    """Bergman fans of connected matroids (rank 3 and 4), plus glued pairs."""
    name = "bergman"
    cmd_kinds = ("check", "balance")
    per_pass = {"gen": 8, "check": 10, "balance": 10}
    nominal_pass_s = 9.5
    GLUED = ((1, 5), (3, 4))  # 4-cycle with diamond, K4 with 4-cycle

    def make_inputs(self, seed, work, n_passes):
        rng = random.Random(seed)
        seen: set = set()
        passes = []
        for p in range(n_passes):
            # the same classes in every pass, so passes cost alike: U(3, 4..7)
            # in the first four passes (each exists once), 4-cycles, diamonds
            # and K4s with parallel edges, and U(4, 5) (the 5-cycle) first,
            # then the 5-cycle with one parallel edge
            if p < 4:
                singles = [("uniform", 3, 4 + p)]
                _fresh(singles[0], seen)
            else:
                singles = [draw_graphic(rng, seen, K4, 7)]
            singles += [draw_graphic(rng, seen, g, 7, gluable=True) for g in (C4, DIAMOND, K4) * 2]
            if p == 0:
                singles.append(("uniform", 4, 5))
                _fresh(singles[-1], seen)
            else:
                singles.append(draw_graphic(rng, seen, C5, 6))
            glued = [(x, y, rng.choice(oracle.singleton_flats(singles[x])),
                      rng.choice(oracle.singleton_flats(singles[y])))
                     for x, y in self.GLUED]
            passes.append({"singles": singles, "glued": glued})
        return passes

    def run_pass(self, index, spec, run, work):
        fans = {}
        for k, m in enumerate(spec["singles"]):
            path = work / f"p{index}-b{k}.json"

            def check_gen(rc, out, path=path, m=m, k=k):
                expect(rc == 0, f"exit {rc}")
                fan = oracle.read_fan(path)
                oracle.check_bergman_fan(fan, m)
                fans[k] = fan

            run("gen", gen_argv(m, path), check_gen)
            r = oracle.flats_and_chains(m)[0]
            hg = _hypergraph(fans.get(k))
            run("check", ["check", str(path), "--mincut"],
                lambda rc, out, r=r, hg=hg: self._check_certified(rc, out, r, hg))
            run("balance", ["balance", str(path)],
                lambda rc, out, hg=hg: _check_balanced(rc, out, hg))
        for x, y, i, j in spec["glued"]:
            path = work / f"p{index}-g{x}-{y}.json"
            hg = None
            if x in fans and y in fans:
                glued = oracle.glue(fans[x], fans[y], i, j)
                path.write_text(oracle.fan_text(glued))
                hg = _hypergraph(glued)
            run("check", ["check", str(path), "--mincut"],
                lambda rc, out, hg=hg: self._check_refuted(rc, out, hg))
            run("balance", ["balance", str(path)],
                lambda rc, out, hg=hg: _check_balanced(rc, out, hg))

    @staticmethod
    def _check_certified(rc, out, r, hg):
        # the paper's theorem: (d-l)-connected, and a simplicial facet makes d-l sharp
        expect(hg is not None, "no fan file to check against")
        cert = json.loads(out)
        expect(rc == 0, f"exit {rc}")
        expect(cert["verdict"] is True and cert["witness"] is None, "not certified")
        expect((cert["d"], cert["lineality_dim"], cert["k"]) == (r, 1, r - 1),
               f"d, l, k = {cert['d']}, {cert['lineality_dim']}, {cert['k']}")
        expect(cert["facets"] == hg[0], f"facets {cert['facets']} != {hg[0]}")
        expect(cert["ridges"] == len(hg[1]), f"ridges {cert['ridges']} != {len(hg[1])}")
        expect(cert["mincut_size"] == r - 1, f"mincut {cert['mincut_size']} != {r - 1}")
        expect(not oracle.connected_after_removal(hg[0], hg[1], cert["mincut_witness"]),
               "the min cut witness does not disconnect")

    @staticmethod
    def _check_refuted(rc, out, hg):
        expect(hg is not None, "no glued fan to check against")
        cert = json.loads(out)
        expect(rc == 2, f"exit {rc}, expected 2")
        expect(cert["verdict"] is False, "glued fan certified")
        expect((cert["d"], cert["lineality_dim"], cert["k"]) == (2, 0, 2),
               f"d, l, k = {cert['d']}, {cert['lineality_dim']}, {cert['k']}")
        expect(cert["facets"] == hg[0] and cert["ridges"] == len(hg[1]),
               "facet or ridge count differs")
        expect(len(cert["witness"]) == 1, "witness size is not k-1")
        expect(not oracle.connected_after_removal(hg[0], hg[1], cert["witness"]),
               "the witness does not disconnect")
        expect(cert["mincut_size"] == 1, f"mincut {cert['mincut_size']} != 1")


def _hypergraph(fan):
    """(facet count, hyperedges) of a simplicial fan file, or None."""
    if fan is None:
        return None
    return len(fan["cells"]), oracle.simplicial_hyperedges(oracle.cell_rays(fan))


def _check_balanced(rc, out, hg):
    expect(hg is not None, "no fan file to check against")
    report = json.loads(out)
    expect(rc == 0, f"exit {rc}")
    expect(report["balanced"] is True and report["failing"] == [], "not balanced")
    expect(report["ridges"] == len(hg[1]), f"ridges {report['ridges']} != {len(hg[1])}")


def sphere_ball(dim: int, r2: int) -> list[tuple[int, ...]]:
    """Lattice points strictly inside the sphere of squared radius r2."""
    bound = int(r2 ** 0.5)
    pts = [()]
    for _ in range(dim):
        pts = [q + (x,) for q in pts for x in range(-bound, bound + 1)]
    return [q for q in pts if sum(c * c for c in q) < r2]


def _fresh_vertices(rng: random.Random, seen: set, sphere, count: int, dim: int) -> list:
    """`count` points of the sphere spanning dimension `dim`, a set not drawn
    before; all are vertices of their hull."""
    while True:
        verts = rng.sample(sphere, count)
        key = frozenset(verts)
        if key not in seen and oracle.affine_rank(verts) == dim:
            seen.add(key)
            return verts


class Polytope(Workload):
    """Normal fans of lattice polytopes: three in dimension 3 (50 points, of
    which 10 are vertices) and one in dimension 4 (6 points, all vertices)."""
    name = "polytope"
    cmd_kinds = ("check", "balance")
    per_pass = {"gen": 4, "check": 4, "balance": 4}
    nominal_pass_s = 7.5

    # (vertices, points) of the three 3-polytopes, and vertices of the 4-polytope
    SHAPES3 = ((10, 50),) * 3
    VERTS4 = 6

    def make_inputs(self, seed, work, n_passes):
        rng = random.Random(seed)
        sphere3 = oracle.sphere_points(3, 29)   # 72 points in convex position
        sphere4 = oracle.sphere_points(4, 9)    # 104 points in convex position
        ball = sphere_ball(3, 29)
        seen: set = set()
        passes = []
        for p in range(n_passes):
            items = []
            for n_verts, n_points in self.SHAPES3:
                verts = _fresh_vertices(rng, seen, sphere3, n_verts, 3)
                planes = oracle.hull3_planes(verts)
                # fill with lattice points strictly inside the hull: never vertices
                pts = list(verts)
                for q in rng.sample(ball, len(ball)):
                    if len(pts) == n_points:
                        break
                    if oracle.strictly_inside(q, planes):
                        pts.append(q)
                rng.shuffle(pts)
                items.append({"dim": 3, "vertices": n_verts, "points": pts,
                              "edges": n_verts + len(planes) - 2})  # Euler
            verts = _fresh_vertices(rng, seen, sphere4, self.VERTS4, 4)
            items.append({"dim": 4, "vertices": self.VERTS4, "points": verts, "edges": None})
            for k, item in enumerate(items):
                item["file"] = f"p{p}-pts{k}.json"
                (work / item["file"]).write_text(json.dumps([list(q) for q in item["points"]]))
            passes.append(items)
        return passes

    def run_pass(self, index, spec, run, work):
        for k, item in enumerate(spec):
            path = work / f"p{index}-n{k}.json"
            dim, nv = item["dim"], item["vertices"]
            run("gen", ["gen", "normal-fan", str(work / item["file"]), "-o", str(path)],
                _writes_fan(path, nv, dim))
            ridges = {}

            def check_cert(rc, out, item=item, ridges=ridges):
                # Balinski: the graph of a d-polytope is d-connected
                cert = json.loads(out)
                expect(rc == 0, f"exit {rc}")
                expect(cert["verdict"] is True, "not certified")
                expect((cert["d"], cert["lineality_dim"], cert["k"]) == (item["dim"], 0, item["dim"]),
                       f"d, l, k = {cert['d']}, {cert['lineality_dim']}, {cert['k']}")
                expect(cert["facets"] == item["vertices"], "facets != vertices")
                if item["edges"] is not None:
                    expect(cert["ridges"] == item["edges"], f"ridges {cert['ridges']} != {item['edges']}")
                ridges["n"] = cert["ridges"]

            def check_bal(rc, out, item=item, ridges=ridges):
                report = json.loads(out)
                expect(rc == 0, f"exit {rc}")
                expect(report["balanced"] is True and report["failing"] == [], "not balanced")
                expect(report["ridges"] == (item["edges"] or ridges.get("n")), "ridge count differs")

            run("check", ["check", str(path)], check_cert)
            run("balance", ["balance", str(path)], check_bal)


class Products(Workload):
    """Normal fans of products of a hexagon and a heptagon, factors in random
    order: simple 4-polytopes with 42 facets and k = 4, a size at which the
    subset scan and min cut outweigh building the hypergraph."""
    name = "products"
    cmd_kinds = ("check",)
    per_pass = {"gen": 2, "check": 2}
    nominal_pass_s = 9.0

    def make_inputs(self, seed, work, n_passes):
        rng = random.Random(seed)
        circle = oracle.sphere_points(2, 65)  # 16 points in convex position
        seen: set = set()
        passes = []
        for p in range(n_passes):
            items = []
            for k in range(self.per_pass["gen"]):
                while True:
                    sizes = rng.sample((6, 7), 2)
                    P = rng.sample(circle, sizes[0])
                    Q = rng.sample(circle, sizes[1])
                    key = (oracle.polygon_signature(P), oracle.polygon_signature(Q))
                    if key not in seen:
                        break
                seen.add(key)
                # P x Q has |V(P)||V(Q)| vertices and |V(P)||E(Q)| + |E(P)||V(Q)| edges
                items.append({"dim": 4, "vertices": 42, "edges": 84, "file": f"p{p}-pts{k}.json"})
                (work / items[-1]["file"]).write_text(json.dumps([list(x + y) for x in P for y in Q]))
            passes.append(items)
        return passes

    @staticmethod
    def largest_fan(work: Path) -> Path:
        """The largest fan file written by the passes run so far."""
        return max(work.glob("p*-n*.json"), key=lambda p: p.stat().st_size)

    def run_pass(self, index, spec, run, work):
        for k, item in enumerate(spec):
            path = work / f"p{index}-n{k}.json"
            run("gen", ["gen", "normal-fan", str(work / item["file"]), "-o", str(path)],
                _writes_fan(path, item["vertices"], item["dim"]))

            def check_cert(rc, out, item=item):
                cert = json.loads(out)
                d = item["dim"]
                expect(rc == 0, f"exit {rc}")
                expect(cert["verdict"] is True, "not certified")
                expect((cert["d"], cert["lineality_dim"], cert["k"]) == (d, 0, d),
                       f"d, l, k = {cert['d']}, {cert['lineality_dim']}, {cert['k']}")
                expect(cert["facets"] == item["vertices"], "facets != vertices")
                expect(cert["ridges"] == item["edges"], f"ridges {cert['ridges']} != {item['edges']}")
                expect(cert["mincut_size"] == d, f"mincut {cert['mincut_size']} != {d}")

            run("check", ["check", str(path), "--mincut"], check_cert)


class Sections(Workload):
    """Rank-3 Bergman fans: a generic affine hyperplane section, the
    quotient by the lineality, and the star at a seeded ray."""
    name = "sections"
    cmd_kinds = ("slice",)
    per_pass = {"gen": 12, "slice": 12, "quotient": 12, "star": 12}
    nominal_pass_s = 7.0

    def make_inputs(self, seed, work, n_passes):
        rng = random.Random(seed)
        seen: set = set()
        passes = []
        for _ in range(n_passes):
            items = []
            for base in (C4, DIAMOND, K4, DIAMOND) * 3:
                m = draw_graphic(rng, seen, base, 7)
                n = oracle.ground_size(m)
                h = [rng.randint(-9, 9) for _ in range(n)]
                while sum(h) == 0:  # keep H transverse to the lineality line
                    h[rng.randrange(n)] = rng.randint(-9, 9)
                c = f"{rng.choice([-1, 1]) * rng.randint(1, 9)}/{rng.randint(1, 3)}"
                ray = rng.randrange(len(oracle.flats_and_chains(m)[1]))
                items.append({"matroid": m, "h": h, "c": c, "ray": ray})
            passes.append(items)
        return passes

    def run_pass(self, index, spec, run, work):
        for k, item in enumerate(spec):
            path = work / f"p{index}-b{k}.json"
            m = item["matroid"]
            n = oracle.ground_size(m)
            fan = {}

            def check_gen(rc, out, path=path, m=m, fan=fan):
                expect(rc == 0, f"exit {rc}")
                fan.update(oracle.read_fan(path))
                oracle.check_bergman_fan(fan, m)

            run("gen", gen_argv(m, path), check_gen)
            cells = oracle.cell_rays(fan) if fan else None
            sec = work / f"p{index}-s{k}.json"

            def check_slice(rc, out, sec=sec, cells=cells):
                # H meets every cell (it crosses the lineality line), so the
                # section keeps each facet and the facet-ridge hypergraph
                expect(cells is not None, "no fan file to check against")
                summary = json.loads(out)
                expect(rc == 0, f"exit {rc}")
                expect(summary["pure"] is True and summary["connected"] is True, "not pure or connected")
                expect(summary["provenance"] == list(range(len(cells))), "a facet was lost")
                ridges = len(oracle.simplicial_hyperedges(cells))
                expect(summary["ridges"] == ridges, f"ridges {summary['ridges']} != {ridges}")
                _check_fan_cells(sec, len(cells), n)

            run("slice", ["slice", str(path), f"--h={','.join(map(str, item['h']))}",
                          f"--c={item['c']}", "-o", str(sec)], check_slice)
            # without a fan file to count from, -1 cells makes the checks fail
            quo = work / f"p{index}-q{k}.json"
            run("quotient", ["quotient", str(path), "-o", str(quo)],
                _writes_fan(quo, len(cells) if cells else -1, n - 1))
            st = work / f"p{index}-t{k}.json"
            incident = sum(item["ray"] in c for c in cells) if cells else -1
            run("star", ["star", str(path), "--face", f"r{item['ray']}", "-o", str(st)],
                _writes_fan(st, incident, n - 2))


WORKLOADS = {w.name: w for w in (Bergman(), Polytope(), Products(), Sections())}
