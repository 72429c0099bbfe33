"""Canonical JSON interchange for fans and complexes.

Documents and enforces the file schema::

    {"ambient_dim": n,
     "rays": [[int, ...], ...],          # primitive integer vectors
     "vertices": [["p/q", ...], ...],    # rationals as strings
     "lineality": [[int, ...], ...],
     "cells": [{"v": [...], "r": [...]}, ...],
     "weights": [int, ...]}

Cells reference pool indices; every cell implicitly contains the lineality
space.  Serialization is canonical (sorted pools and cells), so printing an
already-parsed canonical file reproduces it byte for byte.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Union

from .polyhedral import Complex
from .ratlin import Vec, as_int_list, is_zero, primitive_vector


def format_rational(x: Fraction) -> Union[str, int]:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def parse_rational(s) -> Fraction:
    if isinstance(s, int):
        return Fraction(s)
    if isinstance(s, str):
        return Fraction(s)
    raise ValueError(f"rationals must be strings or integers, got {type(s).__name__}")


def fan_to_obj(c: Complex) -> dict:
    """Canonical JSON-ready dict: pools sorted, cells remapped and sorted."""
    vperm = sorted(range(len(c.vertex_pool)), key=lambda i: c.vertex_pool[i])
    rperm = sorted(range(len(c.ray_pool)), key=lambda i: c.ray_pool[i])
    vmap = {old: new for new, old in enumerate(vperm)}
    rmap = {old: new for new, old in enumerate(rperm)}
    cells = []
    for (vidx, ridx), w in zip(c.cells, c.weights):
        cells.append((tuple(sorted(vmap[i] for i in vidx)),
                      tuple(sorted(rmap[i] for i in ridx)), w))
    cells.sort(key=lambda t: (t[0], t[1]))
    return {
        "ambient_dim": c.ambient_dim,
        "rays": [as_int_list(c.ray_pool[i]) for i in rperm],
        "vertices": [[format_rational(x) for x in c.vertex_pool[i]] for i in vperm],
        "lineality": [as_int_list(l) for l in c.lineality],
        "cells": [{"v": list(v), "r": list(r)} for v, r, _ in cells],
        "weights": [w for _, _, w in cells],
    }


def fan_to_text(c: Complex) -> str:
    return json.dumps(fan_to_obj(c), indent=2) + "\n"


def _integer(x, what: str) -> int:
    if isinstance(x, bool) or not isinstance(x, (int, str)):
        raise ValueError(f"{what} {x!r} is not an integer")
    return int(x)


def _list(x, what: str) -> list:
    if not isinstance(x, list):
        raise ValueError(f"{what} {x!r} is not a list")
    return x


def _rows(obj: dict, key: str, what: str) -> list:
    return [_list(row, what) for row in _list(obj[key], key)]


def _integer_vector(entries, what: str) -> Vec:
    v = tuple(parse_rational(x) for x in entries)
    if any(x.denominator != 1 for x in v):
        raise ValueError(f"{what} {entries} is not an integer vector")
    return v


def fan_from_obj(obj: dict) -> Complex:
    if not isinstance(obj, dict):
        raise ValueError(f"a fan file holds a JSON object, not {obj!r}")
    required = {"ambient_dim", "rays", "vertices", "lineality", "cells", "weights"}
    missing = required - set(obj)
    if missing:
        raise ValueError(f"fan file missing keys: {sorted(missing)}")
    n = _integer(obj["ambient_dim"], "ambient_dim")
    rays = tuple(_integer_vector(r, "ray") for r in _rows(obj, "rays", "ray"))
    for r in rays:
        if is_zero(r) or primitive_vector(r) != r:
            raise ValueError(f"ray {as_int_list(r)} is not a primitive nonzero vector")
    vertices = tuple(tuple(parse_rational(x) for x in v)
                     for v in _rows(obj, "vertices", "vertex"))
    lineality = tuple(_integer_vector(l, "lineality row")
                      for l in _rows(obj, "lineality", "lineality row"))
    cells = []
    for cell in _list(obj["cells"], "cells"):
        if not isinstance(cell, dict):
            raise ValueError(f"cell {cell!r} is not an object")
        v = tuple(_integer(i, "cell index") for i in _list(cell.get("v", []), "cell v"))
        r = tuple(_integer(i, "cell index") for i in _list(cell.get("r", []), "cell r"))
        if any(i >= len(vertices) or i < 0 for i in v) or \
                any(i >= len(rays) or i < 0 for i in r):
            raise ValueError("cell references an index outside the pools")
        cells.append((v, r))
    weights = tuple(_integer(w, "weight") for w in _list(obj["weights"], "weights"))
    if len(weights) != len(cells):
        raise ValueError(f"{len(weights)} weights for {len(cells)} cells")
    return Complex(n, vertices, rays, lineality, tuple(cells), weights)


def fan_from_text(text: str) -> Complex:
    return fan_from_obj(json.loads(text))


def save_fan(c: Complex, path: str) -> None:
    with open(path, "w") as fh:
        fh.write(fan_to_text(c))


def load_fan(path: str) -> Complex:
    with open(path) as fh:
        return fan_from_text(fh.read())
