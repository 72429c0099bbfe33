"""Command-line front end.

Subcommands::

    tropicon gen <kind> [params] [-o f.json]       generate a canonical fan
    tropicon check f.json [--k K] [--mincut]
    tropicon slice f.json --h 1,2,4 --c 1 [-o g.json]
    tropicon balance f.json
    tropicon quotient f.json [-o g.json]
    tropicon star f.json --face r0,r2 [-o g.json]
    tropicon dot f.json

Exit codes: 0 success/verdict true, 1 input or usage error, 2 certified
failure (disconnection, unbalanced, transversality refuted by a witness).
The environment variable TROPICON_BUDGET overrides the certification work budget.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys

from . import connectivity
from .connectivity import (
    BudgetExceeded, TooFewFacets, build_hypergraph, connected_components,
    hypergraph_dot, is_k_connected, min_facet_cut,
)
from .fanjson import fan_to_text, load_fan, parse_json, parse_rational
from .matroid import Matroid, bergman_fine
from .polyhedral import AffineHyperplane, Complex, Polyhedron, validate_complex
from .ratlin import vec
from .tropical import (
    NotTransverse, balancing_check, cube_normal_fan, hyperplane_section,
    normal_fan, quotient_by_lineality, standard_tropical_plane, star,
    two_planes_fan,
)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_REFUTED = 2

GEN_KINDS = ("two-planes", "tropical-plane", "bergman-uniform",
             "bergman-graphic", "normal-fan-cube", "normal-fan")


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # "-2,1,3" and "-1/2" are values, as argparse already takes "-1"
        self._negative_number_matcher = re.compile(r"-\.?\d")

    # usage problems are input errors: exit 1, not argparse's default 2
    def error(self, message):
        self.print_usage(sys.stderr)
        raise UsageError(message)


def _budget() -> int:
    raw = os.environ.get("TROPICON_BUDGET") or str(connectivity.DEFAULT_BUDGET)
    if not re.fullmatch("[0-9]+", raw) or int(raw) < 1:
        raise UsageError(f"TROPICON_BUDGET must be a positive integer, not {raw!r}")
    return int(raw)


def _write(text: str, output: str | None) -> None:
    if output:
        with open(output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _natural(raw: str, what: str) -> int:
    """A command-line integer: ASCII digits only, so no sign, spaces,
    underscores or other scripts' digits, which int() takes."""
    if not re.fullmatch("[0-9]+", raw):
        raise UsageError(f"{what} must be written in the digits 0-9, not {raw!r}")
    return int(raw)


def _parse_edges(params: list[str]) -> list[tuple[int, int]]:
    edges = []
    for chunk in params:
        for token in chunk.replace(",", " ").split():
            a, _, b = token.partition("-")
            if not b:
                raise UsageError(f"edge {token!r} is not of the form u-v")
            edges.append(tuple(_natural(x, f"endpoint of edge {token!r}") for x in (a, b)))
    if not edges:
        raise UsageError("bergman-graphic needs at least one edge u-v")
    return edges


def cmd_gen(args) -> int:
    kind = args.kind
    params = args.params
    if kind == "two-planes":
        fan = two_planes_fan()
    elif kind == "tropical-plane":
        fan = standard_tropical_plane()
    elif kind == "bergman-uniform":
        if len(params) != 2:
            raise UsageError("usage: gen bergman-uniform R N")
        fan = bergman_fine(Matroid.uniform(_natural(params[0], "R"), _natural(params[1], "N")))
    elif kind == "bergman-graphic":
        fan = bergman_fine(Matroid.graphic(_parse_edges(params)))
    elif kind == "normal-fan-cube":
        if len(params) != 1:
            raise UsageError("usage: gen normal-fan-cube D")
        fan = cube_normal_fan(_natural(params[0], "D"))
    elif kind == "normal-fan":
        if len(params) != 1:
            raise UsageError("usage: gen normal-fan <vertices-file>")
        with open(params[0]) as fh:
            pts = parse_json(fh.read())
        if not isinstance(pts, list) or not all(isinstance(p, list) for p in pts):
            raise UsageError("a points file holds a list of coordinate lists")
        fan = normal_fan([[parse_rational(x) for x in p] for p in pts])
    else:
        raise UsageError(f"unknown kind {kind!r}; choose from {', '.join(GEN_KINDS)}")
    _write(fan_to_text(fan), args.output)
    return EXIT_OK


def _load_checked(path: str) -> Complex:
    fan = load_fan(path)
    report = validate_complex(fan)
    if not report.valid:
        raise UsageError("invalid complex: " + "; ".join(report.issues))
    return fan


def cmd_check(args) -> int:
    budget = _budget()
    k = None if args.k is None else _natural(args.k, "--k")
    fan = _load_checked(args.fan)
    h = build_hypergraph(fan)
    d = fan.dim
    ell = fan.lineality_dim
    k = d - ell if k is None else k
    cert = is_k_connected(h, k, budget)
    out = {
        "k": cert.k,
        "verdict": cert.verdict,
        "witness": list(cert.witness) if cert.witness is not None else None,
        "d": d,
        "lineality_dim": ell,
        "facets": h.num_facets,
        "ridges": h.num_ridges,
        "subsets_examined": cert.subsets_examined,
    }
    if args.mincut:
        try:
            cut = min_facet_cut(h, budget)
        except TooFewFacets:  # no two facets to separate: no cut exists
            cut = None
        out["mincut_size"] = None if cut is None else cut[0]
        out["mincut_witness"] = None if cut is None else list(cut[1])
    sys.stdout.write(json.dumps(out, indent=2) + "\n")
    return EXIT_OK if cert.verdict else EXIT_REFUTED


def cmd_slice(args) -> int:
    fan = _load_checked(args.fan)
    tokens = re.split(r"\s*,\s*|\s+", args.h.strip())
    if "" in tokens:
        raise UsageError(f"--h {args.h!r} has an empty field")
    normal = vec([parse_rational(tok) for tok in tokens])
    offset = parse_rational(args.c)
    H = AffineHyperplane(normal, offset)
    result = hyperplane_section(fan, H)
    h = build_hypergraph(result.section)
    summary = {
        "facets": h.num_facets,
        "ridges": h.num_ridges,
        "connected": len(connected_components(h)) <= 1,
        "pure": result.pure,
        "provenance": list(result.facet_provenance),
    }
    _write(fan_to_text(result.section), args.output)
    sys.stdout.write(json.dumps(summary, indent=2) + "\n")
    return EXIT_OK


def cmd_balance(args) -> int:
    fan = _load_checked(args.fan)
    report = balancing_check(fan)
    out = {
        "balanced": report.balanced,
        "ridges": len(report.entries),
        "failing": [
            {"ridge": e.ridge_label,
             "residual": [str(x) for x in e.residual]}
            for e in report.failing()
        ],
    }
    sys.stdout.write(json.dumps(out, indent=2) + "\n")
    return EXIT_OK if report.balanced else EXIT_REFUTED


def cmd_quotient(args) -> int:
    fan = _load_checked(args.fan)
    out, _ = quotient_by_lineality(fan)
    _write(fan_to_text(out), args.output)
    return EXIT_OK


def _parse_face_spec(raw: str) -> list[int]:
    """Face spec tokens: r<i> for ray pool indices, i in ASCII digits.  A fan
    has no vertices, so a face of it has rays only."""
    rays = []
    for token in raw.replace(",", " ").split():
        if not re.fullmatch("r[0-9]+", token):
            raise UsageError(f"face token {token!r} must look like r0")
        rays.append(int(token[1:]))
    if not rays:
        raise UsageError("empty face spec")
    return rays


def cmd_star(args) -> int:
    fan = _load_checked(args.fan)
    ray_ids = _parse_face_spec(args.face)
    if not all(0 <= i < len(fan.ray_pool) for i in ray_ids):
        raise UsageError("face index outside the fan's pools")
    face = Polyhedron(fan.ambient_dim, (), tuple(fan.ray_pool[i] for i in ray_ids),
                      fan.lineality)
    out = star(fan, face)
    _write(fan_to_text(out), args.output)
    return EXIT_OK


def cmd_dot(args) -> int:
    fan = _load_checked(args.fan)
    sys.stdout.write(hypergraph_dot(fan))
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing keeps no
    state in it between calls."""
    parser = _Parser(prog="tropicon",
                     description="Exact fans, Bergman fans, and facet-ridge "
                                 "connectivity certificates.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a canonical fan file")
    p.add_argument("kind", help=f"one of: {', '.join(GEN_KINDS)}")
    p.add_argument("params", nargs="*", help="kind-specific parameters")
    p.add_argument("-o", "--output", help="output path (default stdout)")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("check", help="certify k-connectivity through codimension one")
    p.add_argument("fan")
    p.add_argument("--k", default=None,
                   help="connectivity to test (default: dim minus the cells' shared lineality)")
    p.add_argument("--mincut", action="store_true",
                   help="also search for a minimum disconnecting facet set")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("slice", help="transverse affine hyperplane section")
    p.add_argument("fan")
    p.add_argument("--h", required=True, help="normal vector, e.g. 1,2,4 or '1 2 4'")
    p.add_argument("--c", required=True, help="offset, e.g. 1 or 3/2")
    p.add_argument("-o", "--output", help="write the section fan here")
    p.set_defaults(func=cmd_slice)

    p = sub.add_parser("balance", help="verify the balancing condition per ridge")
    p.add_argument("fan")
    p.set_defaults(func=cmd_balance)

    p = sub.add_parser("quotient", help="project along the lineality space")
    p.add_argument("fan")
    p.add_argument("-o", "--output", help="output path (default stdout)")
    p.set_defaults(func=cmd_quotient)

    p = sub.add_parser("star", help="star of a fan at a face, modulo its span")
    p.add_argument("fan")
    p.add_argument("--face", required=True,
                   help="face by ray pool indices, e.g. 'r0,r2' or 'r0 r1'")
    p.add_argument("-o", "--output", help="output path (default stdout)")
    p.set_defaults(func=cmd_star)

    p = sub.add_parser("dot", help="bipartite facet/ridge incidence graph in DOT")
    p.add_argument("fan")
    p.set_defaults(func=cmd_dot)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except NotTransverse as exc:
        print(f"tropicon: not transverse: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (UsageError, OSError, ValueError, KeyError, BudgetExceeded) as exc:
        # a json.JSONDecodeError is a ValueError
        print(f"tropicon: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
