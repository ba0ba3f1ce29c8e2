"""Text file formats for permutations and cubes.

Array files hold one permutation per line as whitespace-separated
1-based values; lines starting with '#' and blank lines are ignored.
array_lines lists the others, and array_line_numbers their line numbers.
Each value is read as int() reads it.  parse_array_file gives the arrays
of a file as one value matrix, for every command that reads an array
file: numpy's C reader (np.loadtxt) converts the array lines in one
call, and text it refuses, a file of mixed orders among it, is read line
by line, which zero-pads the lesser orders and names the first bad line.

Cube files are either a JSON document {"order": n, "triples": [[i, j, k],
...]} (extra keys ignored) or plain text with one "i j k" line per row,
with the same comment convention.
"""

from __future__ import annotations

import json
import warnings
from typing import Iterable, Sequence

import numpy as np

from .core import CostasCube


def array_lines(text: str) -> list[str]:
    """The array lines of an array file: every line that is neither blank
    nor a '#' comment."""
    return [line for line in text.splitlines() if line.strip()[:1] not in ("", "#")]


def array_line_numbers(text: str) -> list[int]:
    """The 1-based line number in text of each of its array_lines."""
    # A line splits into itself alone, so array_lines(line) is [line]
    # exactly when line is an array line, and [] otherwise.
    return [no for no, line in enumerate(text.splitlines(), start=1) if array_lines(line)]


def parse_array_file(text: str) -> np.ndarray:
    """The arrays of an array file as the rows of one (N, n) value matrix,
    in the least unsigned dtype for n; a row of lesser order is
    zero-padded.

    np.loadtxt converts the array lines in one call, which refuses a file
    whose lines do not all hold as many tokens as the first.  One sort
    along the rows checks that each row is a bijection on 1..n.  The C
    reader accepts a subset of what int() reads, and its result is taken
    only when the call raised no warning (older numpy reads 1.0 as an
    integer, with a DeprecationWarning).  Any other text, a file of mixed
    orders and a file with no array lines among it, is read line by line
    (_read_lines), which zero-pads the lesser orders and names the first
    bad line.
    """
    lines = array_lines(text)
    values = _bijections(lines)
    if values is None:
        values = _read_lines(array_line_numbers(text), lines)
    return values.astype(np.min_scalar_type(values.shape[1]))


def _read_lines(numbers: list[int], lines: list[str]) -> np.ndarray:
    """The array lines, numbered as in their file, read one at a time by
    int(), as one zero-padded int64 matrix.  Raises ValueError naming the
    first line that does not parse or is not a bijection on 1..n, or when
    there is no line."""
    if not lines:
        raise ValueError("no permutations found")
    rows = []
    for no, line in zip(numbers, lines):
        try:
            row = tuple(map(int, line.split()))
        except ValueError as exc:
            raise ValueError(f"line {no}: {exc}") from None
        if sorted(row) != list(range(1, len(row) + 1)):
            raise ValueError(f"line {no}: {row!r} is not a bijection on 1..{len(row)}")
        rows.append(row)
    width = max(map(len, rows))
    return np.array([row + (0,) * (width - len(row)) for row in rows], dtype=np.int64)


def _bijections(lines: list[str]) -> np.ndarray | None:
    """The lines as one int64 matrix read by np.loadtxt, or None when there
    are none, the read raises or warns, or a row is not a bijection on 1..n."""
    if not lines:
        return None
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            values = np.loadtxt(lines, dtype=np.int64, comments=None, ndmin=2)
        except (ValueError, OverflowError, Warning):
            return None
    return values if (np.sort(values, axis=1) == np.arange(1, values.shape[1] + 1)).all() else None


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
