"""Command-line front end.

Subcommands::

    tropicon gen <kind> [params] [-o f.json]       generate a canonical fan
    tropicon check f.json [--k K] [--mincut]
    tropicon slice f.json --h 1,2,4 --c 1 [-o g.json]
    tropicon balance f.json
    tropicon quotient f.json [-o g.json]
    tropicon star f.json --face-rays 0,2 [--face-vertices i,j] [-o g.json]
    tropicon dot f.json

Exit codes: 0 success/verdict true, 1 input or usage error, 2 certified
failure (disconnection, unbalanced, transversality refuted by a witness).
The environment variable TROPICON_BUDGET overrides the subset-search budget.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from . import connectivity, fanjson, matroid, tropical
from .connectivity import (
    BudgetExceeded, build_hypergraph, connected_components, hypergraph_dot,
    is_k_connected, min_facet_cut,
)
from .fanjson import fan_to_text, load_fan, parse_rational, save_fan
from .matroid import Matroid, bergman_fine
from .polyhedral import AffineHyperplane, Complex, Polyhedron, validate_complex
from .ratlin import vec
from .tropical import (
    NotTransverse, WeightedComplex, balancing_check, cube_normal_fan,
    hyperplane_section, normal_fan, quotient_by_lineality, standard_tropical_plane,
    star, two_planes_fan,
)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_REFUTED = 2

GEN_KINDS = ("two-planes", "tropical-plane", "bergman-uniform",
             "bergman-graphic", "normal-fan-cube", "normal-fan")


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # usage problems are input errors: exit 1, not argparse's default 2
    def error(self, message):
        self.print_usage(sys.stderr)
        raise UsageError(message)


def _budget() -> int:
    raw = os.environ.get("TROPICON_BUDGET")
    return int(raw) if raw else connectivity.DEFAULT_BUDGET


def _write(text: str, output: str | None) -> None:
    if output:
        with open(output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _parse_edges(params: list[str]) -> list[tuple[int, int]]:
    edges = []
    for chunk in params:
        for token in chunk.replace(",", " ").split():
            a, _, b = token.partition("-")
            if not b:
                raise UsageError(f"edge {token!r} is not of the form u-v")
            edges.append((int(a), int(b)))
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
        fan = bergman_fine(Matroid.uniform(int(params[0]), int(params[1])))
    elif kind == "bergman-graphic":
        fan = bergman_fine(Matroid.graphic(_parse_edges(params)))
    elif kind == "normal-fan-cube":
        if len(params) != 1:
            raise UsageError("usage: gen normal-fan-cube D")
        fan = cube_normal_fan(int(params[0]))
    elif kind == "normal-fan":
        if len(params) != 1:
            raise UsageError("usage: gen normal-fan <vertices-file>")
        with open(params[0]) as fh:
            pts = json.load(fh)
        fan = normal_fan([[parse_rational(x) for x in p] for p in pts]).complex
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
    fan = _load_checked(args.fan)
    h = build_hypergraph(fan)
    d = fan.dim
    ell = fan.lineality_dim
    k = args.k if args.k is not None else d - ell
    budget = _budget()
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
        cut = min_facet_cut(h, budget)
        out["mincut_size"] = None if cut is None else cut[0]
        out["mincut_witness"] = None if cut is None else list(cut[1])
    sys.stdout.write(json.dumps(out, indent=2) + "\n")
    return EXIT_OK if cert.verdict else EXIT_REFUTED


def cmd_slice(args) -> int:
    fan = _load_checked(args.fan)
    normal = vec([Fraction(tok) for tok in args.h.split(",")])
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
    if args.output:
        save_fan(result.section, args.output)
    else:
        sys.stdout.write(fan_to_text(result.section))
    sys.stdout.write(json.dumps(summary, indent=2) + "\n")
    return EXIT_OK


def cmd_balance(args) -> int:
    fan = _load_checked(args.fan)
    report = balancing_check(WeightedComplex(fan))
    out = {
        "balanced": report.balanced,
        "ridges": len(report.entries),
        "failing": [
            {"ridge": e.ridge_label,
             "residual": [fanjson.format_rational(x) for x in e.residual]}
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


def _parse_face_spec(raw: str) -> tuple[list[int], list[int]]:
    """Face spec tokens: r<i> for ray pool indices, v<i> for vertex indices."""
    rays, verts = [], []
    for token in raw.replace(",", " ").split():
        if token.startswith("r"):
            rays.append(int(token[1:]))
        elif token.startswith("v"):
            verts.append(int(token[1:]))
        else:
            raise UsageError(f"face token {token!r} must look like r0 or v1")
    if not rays and not verts:
        raise UsageError("empty face spec")
    return rays, verts


def cmd_star(args) -> int:
    fan = _load_checked(args.fan)
    ray_ids, vert_ids = _parse_face_spec(args.face)
    try:
        face = Polyhedron(fan.ambient_dim,
                          tuple(fan.vertex_pool[i] for i in vert_ids),
                          tuple(fan.ray_pool[i] for i in ray_ids),
                          fan.lineality)
    except IndexError:
        raise UsageError("face index outside the fan's pools")
    out = star(fan, face)
    _write(fan_to_text(out), args.output)
    return EXIT_OK


def cmd_dot(args) -> int:
    fan = _load_checked(args.fan)
    sys.stdout.write(hypergraph_dot(build_hypergraph(fan)))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
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
    p.add_argument("--k", type=int, default=None,
                   help="connectivity to test (default: dim minus lineality dim)")
    p.add_argument("--mincut", action="store_true",
                   help="also search for a minimum disconnecting facet set")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("slice", help="transverse affine hyperplane section")
    p.add_argument("fan")
    p.add_argument("--h", required=True, help="normal vector, e.g. 1,2,4")
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
                   help="face by pool indices, e.g. 'r0,r2' or 'v0 r1'")
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
    except UsageError as exc:
        print(f"tropicon: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except NotTransverse as exc:
        print(f"tropicon: not transverse: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        print(f"tropicon: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except BudgetExceeded as exc:
        print(f"tropicon: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
