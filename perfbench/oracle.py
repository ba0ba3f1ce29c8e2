"""Reference checks that share no code with costas_cubes.

Arrays are 1-based value tuples (sigma(1), ..., sigma(n)); the array
form has its 1 entries at cells (sigma(j), j).  Cubes are row tuples
((j_1, k_1), ..., (j_n, k_n)) with 1 entries at (i, j_i, k_i).  The
symmetry groups are every signed permutation of the coordinate axes:
8 for arrays, 48 for cubes.
"""

from __future__ import annotations

from itertools import permutations, product

# Published totals: Costas arrays per order (OEIS A008404) and their
# classes under the 8 square symmetries (OEIS A001441).
ARRAY_TOTALS = {1: 1, 2: 2, 3: 4, 4: 12, 5: 40, 6: 116, 7: 200, 8: 444, 9: 760,
                10: 2160, 11: 4368}
ARRAY_CLASS_TOTALS = {1: 1, 2: 1, 3: 1, 4: 2, 5: 6, 6: 17, 7: 30, 8: 60, 9: 100,
                      10: 277, 11: 555}


def _signed_axis_maps(dim: int) -> list[tuple[tuple[int, ...], tuple[bool, ...]]]:
    return [(axes, flips) for axes in permutations(range(dim))
            for flips in product((False, True), repeat=dim)]


_SQUARE = _signed_axis_maps(2)
_CUBE = _signed_axis_maps(3)


def _image(point: tuple[int, ...], axes, flips, n: int) -> tuple[int, ...]:
    return tuple(n + 1 - point[a] if f else point[a] for a, f in zip(axes, flips))


def is_permutation(values) -> bool:
    return sorted(values) == list(range(1, len(values) + 1))


def is_costas(values) -> bool:
    """No two pairs of 1 entries share a difference vector."""
    n = len(values)
    if not is_permutation(values):
        return False
    vectors = set()
    for a in range(n):
        for b in range(a + 1, n):
            vectors.add((b - a, values[b] - values[a]))
    return len(vectors) == n * (n - 1) // 2


def array_images(values) -> list[tuple[int, ...]]:
    """The 8 images of an array under the square symmetries."""
    n = len(values)
    cells = [(i, j) for j, i in enumerate(values, start=1)]
    out = []
    for axes, flips in _SQUARE:
        image = [0] * n
        for cell in cells:
            i, j = _image(cell, axes, flips, n)
            image[j - 1] = i
        out.append(tuple(image))
    return out


def array_class_key(values) -> tuple[int, ...]:
    return min(array_images(values))


def cube_images(rows) -> list[tuple[tuple[int, int], ...]]:
    """The 48 images of a permutation cube under the cube symmetries."""
    n = len(rows)
    points = [(i, j, k) for i, (j, k) in enumerate(rows, start=1)]
    out = []
    for axes, flips in _CUBE:
        image = [(0, 0)] * n
        for point in points:
            i, j, k = _image(point, axes, flips, n)
            image[i - 1] = (j, k)
        out.append(tuple(image))
    return out


def cube_class_key(rows) -> tuple[tuple[int, int], ...]:
    return min(cube_images(rows))


def is_costas_cube(rows) -> bool:
    """A permutation cube whose three axis projections are Costas arrays."""
    n = len(rows)
    js = [j for j, _ in rows]
    ks = [k for _, k in rows]
    if not (is_permutation(js) and is_permutation(ks)):
        return False
    a, b, c = [0] * n, [0] * n, [0] * n
    for i, (j, k) in enumerate(rows, start=1):
        a[j - 1] = i
        b[k - 1] = i
        c[k - 1] = j
    return is_costas(a) and is_costas(b) and is_costas(c)


def costas_arrays(n: int) -> list[tuple[int, ...]]:
    """Every Costas array of order n, by plain backtracking."""
    out = []
    values: list[int] = []
    used_vectors: set[tuple[int, int]] = set()

    def extend() -> None:
        col = len(values)
        if col == n:
            out.append(tuple(values))
            return
        for v in range(1, n + 1):
            if v in values:
                continue
            new = [(col - c, v - values[c]) for c in range(col)]
            if used_vectors.intersection(new):
                continue
            used_vectors.update(new)
            values.append(v)
            extend()
            values.pop()
            used_vectors.difference_update(new)

    extend()
    return out
