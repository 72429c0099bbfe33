"""Canonical JSON interchange for fans and complexes.

Documents and parses the file schema, whose pool invariant `Complex` checks::

    {"ambient_dim": n,
     "rays": [[int, ...], ...],          # primitive integer vectors
     "vertices": [["p/q", ...], ...],    # rationals as strings
     "lineality": [[int, ...], ...],     # independent integer rows
     "cells": [{"v": [...], "r": [...]}, ...],
     "weights": [int, ...]}

Cells reference pool indices; every cell implicitly contains the lineality
space.  Serialization is canonical (sorted pools and cells), so printing an
already-parsed canonical file reproduces it byte for byte.
"""

from __future__ import annotations

import functools
import json
import re
import sys
from fractions import Fraction

from .polyhedral import Complex


def _digit_limit() -> int:
    """The most decimal digits CPython converts between an int and a string
    (`sys.get_int_max_str_digits()`), 0 for no limit; a number past it can
    be read by value but never written back."""
    return getattr(sys, "get_int_max_str_digits", lambda: 0)()


# 10**limit: the least int with more digits than the limit, made once per limit
_digit_bound = functools.lru_cache(maxsize=4)(lambda limit: 10 ** limit)


def parse_rational(s) -> Fraction:
    """An int, or a string of the ASCII characters 0-9 + - / . e E as
    Fraction reads it: no spaces, underscores or other scripts' digits,
    all of which Fraction() takes, no exponent past 4 digits, which
    Fraction() would expand to a power of ten that long, and no numerator
    or denominator longer than `_digit_limit()`, compared by magnitude."""
    if isinstance(s, bool) or not isinstance(s, (int, str)):
        raise ValueError(f"rationals must be strings or integers, got {type(s).__name__}")
    if isinstance(s, str) and not re.fullmatch("[0-9+/.eE-]+", s):
        raise ValueError(f"rational {s!r} is not written in 0-9 + - / . e E")
    if isinstance(s, str) and re.search("[eE][+-]?[0-9]{5}", s):
        raise ValueError(f"rational {s!r} has an exponent of more than 4 digits")
    limit = _digit_limit()
    # Fraction() reads each run of digits with int(), which refuses a long one
    if limit and isinstance(s, str) and re.search(f"[0-9]{{{limit + 1}}}", s):
        raise ValueError(f"rational {s!r} has more than {limit} digits")
    try:
        x = Fraction(s)
    except ZeroDivisionError:
        raise ValueError(f"rational {s!r} has a zero denominator") from None
    if limit and max(abs(x.numerator), x.denominator) >= _digit_bound(limit):
        what = f"rational {s!r}" if isinstance(s, str) else "an integer"  # repr() refuses it
        raise ValueError(f"{what} has more than {limit} digits")
    return x


def parse_json(text: str):
    """The JSON value of the text; nesting too deep for the parser is a
    ValueError, not a RecursionError, and so is an integer literal longer
    than `_digit_limit()`, which int() refuses."""
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError("JSON nests too deeply to parse") from None
    except json.JSONDecodeError:
        raise
    except ValueError:  # the one other ValueError: int() refused a literal
        raise ValueError(f"an integer literal has more than {_digit_limit()} digits") from None


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
        "rays": [[x.numerator for x in c.ray_pool[i]] for i in rperm],
        "vertices": [[str(x) for x in c.vertex_pool[i]] for i in vperm],
        "lineality": [[x.numerator for x in l] for l in c.lineality],
        "cells": [{"v": list(v), "r": list(r)} for v, r, _ in cells],
        "weights": [w for _, _, w in cells],
    }


def fan_to_text(c: Complex) -> str:
    return json.dumps(fan_to_obj(c), indent=2) + "\n"


def _integer(x, what: str) -> int:
    """An int (bools are not), or a string -?[0-9]+ in ASCII digits, of at
    most `_digit_limit()` digits."""
    if type(x) is int:
        return x
    if isinstance(x, str) and re.fullmatch("-?[0-9]+", x):
        if (limit := _digit_limit()) and len(x.lstrip("-")) > limit:
            raise ValueError(f"{what} {x!r} has more than {limit} digits")
        return int(x)
    raise ValueError(f"{what} {x!r} is not an integer")


def _list(x, what: str) -> list:
    if not isinstance(x, list):
        raise ValueError(f"{what} {x!r} is not a list")
    return x


def _integers(x, what: str, item: str) -> tuple[int, ...]:
    """The list x as ints; a list of ints only (bools are not) skips `_integer`."""
    x = _list(x, what)
    return tuple(x) if all(type(i) is int for i in x) else tuple(_integer(i, item) for i in x)


def fan_from_obj(obj: dict) -> Complex:
    """The complex of a fan file; rejects unknown keys and integers (ray and
    lineality entries, indices, weights) not written as `_integer` reads
    them, and `Complex` rejects a pool or cells that break the invariant."""
    if not isinstance(obj, dict):
        raise ValueError(f"a fan file holds a JSON object, not {obj!r}")
    required = {"ambient_dim", "rays", "vertices", "lineality", "cells", "weights"}
    missing = required - set(obj)
    if missing:
        raise ValueError(f"fan file missing keys: {sorted(missing)}")
    if len(obj) > len(required):
        raise ValueError(f"fan file has unknown keys: {sorted(set(obj) - required)}")
    n = _integer(obj["ambient_dim"], "ambient_dim")
    if n < 0:
        raise ValueError(f"ambient_dim {n} is negative")
    rays = [_integers(r, "ray", "ray entry") for r in _list(obj["rays"], "rays")]
    vertices = tuple(tuple(parse_rational(x) for x in _list(v, "vertex"))
                     for v in _list(obj["vertices"], "vertices"))
    lineality = [_integers(l, "lineality row", "lineality entry")
                 for l in _list(obj["lineality"], "lineality")]
    cells = []
    for cell in _list(obj["cells"], "cells"):
        if not isinstance(cell, dict) or not set(cell) <= {"v", "r"}:
            raise ValueError(f"cell {cell!r} is not an object with keys among 'v' and 'r'")
        cells.append(tuple(_integers(cell.get(k, []), f"cell {k}", "cell index") for k in "vr"))
    weights = _integers(obj["weights"], "weights", "weight")
    if len(weights) != len(cells):
        raise ValueError(f"{len(weights)} weights for {len(cells)} cells")
    return Complex(n, vertices, tuple(rays), tuple(lineality), tuple(cells), weights)


def fan_from_text(text: str) -> Complex:
    return fan_from_obj(parse_json(text))


def load_fan(path: str) -> Complex:
    with open(path) as fh:
        return fan_from_text(fh.read())
