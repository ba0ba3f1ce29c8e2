"""Text file formats for permutations and cubes.

Array files hold one permutation per line as whitespace-separated
1-based values; lines starting with '#' and blank lines are ignored.
Each value is read as int() reads it.  parse_array_file gives the arrays
of a file as one value matrix, for the pair-join and import: numpy's C
reader (np.loadtxt) converts the array lines in one call, and text it
refuses goes to numbered_arrays.  numbered_arrays gives one validated
Permutation per line, for verify and classify, and names the first bad
line and import's failing line.

Cube files are either a JSON document {"order": n, "triples": [[i, j, k],
...]} (extra keys ignored) or plain text with one "i j k" line per row,
with the same comment convention.
"""

from __future__ import annotations

import json
import warnings
from typing import Iterable, Sequence

import numpy as np

from .core import CostasCube, Permutation, value_matrix


def numbered_arrays(text: str) -> list[tuple[int, Permutation]]:
    """(line number, permutation) for every array line of an array file."""
    numbered = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            numbered.append((lineno, Permutation(tuple(map(int, line.split())))))
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
    if not numbered:
        raise ValueError("no permutations found")
    return numbered


def parse_array_file(text: str) -> np.ndarray:
    """The arrays of an array file as the rows of one (N, n) value matrix.

    np.loadtxt converts the array lines in one call, and fails unless
    every line holds as many tokens as the first; one sort along the rows
    checks that each row is a bijection on 1..n.  The C reader accepts a
    subset of what int() reads, and its result is taken only when the
    call raised no warning (older numpy reads 1.0 as an integer, with a
    DeprecationWarning).  Any other text, and a file with no array
    lines, is read again by numbered_arrays, which names its first bad
    line; a file whose arrays are all valid but of more than one order
    gives their value_matrix, zero-padded.
    """
    lines = [line for line in text.splitlines() if line.strip()[:1] not in ("", "#")]
    values = np.empty(0)
    if lines:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                values = np.loadtxt(lines, dtype=np.int64, comments=None, ndmin=2)
            except (ValueError, OverflowError, Warning):
                pass
    n = values.shape[-1]
    if values.ndim == 2 and (np.sort(values, axis=1) == np.arange(1, n + 1)).all():
        return values.astype(np.min_scalar_type(n))
    return value_matrix([p for _, p in numbered_arrays(text)])


def emit_array_file(rows: Iterable[Sequence[int]], comments: Sequence[str] = ()) -> str:
    lines = [f"# {c}" for c in comments]
    lines.extend(" ".join(map(str, row)) for row in rows)
    return "\n".join(lines) + "\n"


def parse_cube_file(text: str) -> CostasCube:
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(f"bad JSON cube file: {exc}") from None
        triples = doc.get("triples")
        if not isinstance(triples, list):
            raise ValueError('JSON cube file needs a "triples" list')
        clean = []
        # JSON true and false load as bool, a subclass of int: neither is a
        # coordinate or an order.
        for t in triples:
            if not (isinstance(t, list) and len(t) == 3 and all(type(x) is int for x in t)):
                raise ValueError(f"bad triple {t!r}")
            clean.append((t[0], t[1], t[2]))
        cube = CostasCube.from_triples(clean)
        order = doc.get("order")
        if order is not None and type(order) is not int:
            raise ValueError(f"bad order {order!r}")
        if order is not None and order != cube.order:
            raise ValueError(f"declared order {order} does not match {cube.order} triples")
        return cube
    triples = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        toks = line.split()
        if len(toks) != 3:
            raise ValueError(f"line {lineno}: expected 'i j k', got {line!r}")
        try:
            triples.append((int(toks[0]), int(toks[1]), int(toks[2])))
        except ValueError:
            raise ValueError(f"line {lineno}: non-integer coordinate in {line!r}") from None
    if not triples:
        raise ValueError("no triples found")
    return CostasCube.from_triples(triples)


def emit_cube_file(cube: CostasCube, comments: Sequence[str] = ()) -> str:
    lines = [f"# {c}" for c in comments]
    lines.append(f"# order {cube.order}")
    lines.extend(f"{i} {j} {k}" for i, j, k in cube.triples())
    return "\n".join(lines) + "\n"
