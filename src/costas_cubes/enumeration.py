"""Exhaustive generation of Costas arrays and Costas cubes.

Arrays are generated by one search over blocks of partial arrays, from
the block of every two-column prefix whose first value is at most
ceil(n/2).  The search keeps only the corner-least arrays: those whose
first value is the least of the first values of their eight square
images, which are the array's four corner distances and n+1 minus each,
and, when that value is 1, whose second value is at most that of their
transpose.  The least image of every class is corner-least, so the
square images of the arrays found, deduplicated and sorted, are every
array.  The criterion is one window word per column and first two
values, the values that column may not hold, so the columns are still
searched in order.  One numpy step extends every partial array of a
block by one column, pruned by the values it holds, by one difference
bitmask per column distance up to floor((n-1)/2), which catches every
repeated difference (see _prefix_search), and by the window.  The
partial arrays of each length wait in one FIFO of blocks, in
lexicographic order; each step takes up to _BLOCK_ROWS rows from the
deepest FIFO that holds a quarter of that, or else from the shallowest
that holds any, so that the small blocks deep in the search are merged
into one step and the frontier's memory is bounded at every order.  Each
step looks one column ahead and keeps a partial array only when its
next column still has a free value, so that no value or mask row is
built for a partial array with no future.  A value v is bit v - 1 of a
word and a difference w - u is bit w - u + n - 1; words are int32 up to
order 16 and int64 above, and value rows int8.

Cubes of order n are generated by the pair-join over a complete list of
order-n Costas arrays: for a pair (A, B), build the unique permutation
cube with those projections and retain it when Projection C = A^-1 B is
in the list.  Array classes are numbered by their least planar images,
the key by which array_classes counts them, and ordered so.  The cube
symmetries permute the three projection planes and act on each by the
square symmetries, so every cube class has a member whose Projection A
lies in the least class of its three projections, and moving A to the
first member of its class keeps that true.  So A ranges over the first
member of each class and B over the arrays of no lesser class.  The cube
symmetry (j_i, k_i) -> (j_i, n+1-k_i) keeps Projection A and reverses
Projections B and C, so with each hit (A, B) the join meets the hit
(A, rev B) of the same cube class: B and rev B lie in one array class, so
both or neither are of no lesser class than A.  For n >= 2 exactly one
of B and rev B has a first value less than its last, so B ranges over
the arrays whose first value is at most their last, which is half of
each class (at order 1 the one array is kept), and every cube class
still has a hit.  The scan filters the pairs by a hashed key of each
whole row, and looks up the C of each pair whose key occurs in a dict of
the list's row bytes, which alone decides membership.  The keys of a
block of first arrays are one float matrix product, cast to int32 (exact
while every key sum stays below 2^31, which _RowIndex checks) and read
raveled: one gather from the table of the keys that occur and one
flatnonzero, whose positions give the pairs (first, second) by one
division by the block's width.  Class counts come from canonical forms,
and a hit in the orbit of a class already found is not canonicalised
again.  The projection classes are counted from the hits: the classes of
each hit's rows A and B and of the row its lookup of C finds.  The
arrays a cube's orbit projects are the square images of its three
projections, so any one hit of a cube class gives that class's
projection classes.  None of this needs the list to be complete, only
closed under the square symmetries.

The array list reaches the join as one (N, n) value matrix, from
costas_values or files.parse_array_file, and is prepared once for the
scan (_prepare), which checks it and records what the scan reads.
Duplicates are found by the dict from each row's bytes to its position,
which is smaller than the list exactly when two rows are equal, and in
which the scan looks up each C.  Classes come from one stable lexsort of
the least images, which numbers the classes in the order of their least
images and gives the class order, each class's size and its first row
in list order; the scan takes its class order and first arrays from it.
Closure is tested once per class, on that first row: the members of one
class have stabilizers of one size.  Each row is tested to be a
permutation of 1..n by no sort: once every value is known to lie in
1..n, one scatter of the rows' inverses (symmetry.inverse_rows) writes
only each row's own slots, and a row is a permutation when it leaves
none of them 0.  The planar images are formed from those inverses, and
the scan reads the inverses of A and B from the same scatter.  The
square symmetries keep the Costas property, so once every row is known
to be a permutation of 1..n the Costas check runs on one least image per
class, and over the rows only to name the first faulty array.
"""

from __future__ import annotations

import itertools
import random
from collections import deque
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .core import CostasCube, Permutation, _permutations, costas_violations, distinct_rows
from .reference import COSTAS_ARRAY_TOTALS
from .symmetry import _row_keys, class_keys, decode_keys, inverse_rows, least_image, planar_images

DEFAULT_ORDER_LIMIT = 13


class EnumerationLimitError(ValueError):
    """Raised when an order exceeds the in-process enumeration limit."""

    def __init__(self, order: int, limit: int):
        super().__init__(
            f"order {order} exceeds the in-process enumeration limit {limit}; "
            "supply a complete Costas array database for this order instead"
        )
        self.order = order
        self.limit = limit


# A value v is bit v - 1 of a mask word and a difference w - u is bit
# w - u + n - 1, so the top bit in use is 2n - 2: below the sign bit of an
# int32 word up to order 16, and of an int64 word up to MAX_WORD_ORDER.
MAX_WORD_ORDER = 31


# One step of the search takes up to this many rows, so that the frontier
# and one step's temporaries stay a few MB at every order.
_BLOCK_ROWS = 1 << 12


def _corner_window(n: int, dtype: np.dtype) -> np.ndarray:
    """The corner-least window of order n: entry [j, a, b], for a column j
    and first values a and b (all from 1; index 0 unused), is the word of
    the values that column j may not hold in a corner-least array that
    begins with a, b.

    The first values of an array's eight square images are its corner
    distances: sigma(1), sigma(n), c(1) and c(n), and n+1 minus each, where c(v)
    is the column that holds value v.  An array is corner-least when its
    first value a is the least of the eight: then a <= n+1-a, the values 1
    and n lie in columns a..n+1-a and the last value lies in a..n+1-a.  An
    array that begins with 1 has a transpose (its inverse) that begins
    with 1, so when a = 1 it is corner-least only if also b = sigma(2) <=
    c(2), the second value of its transpose: value 2 does not lie in
    columns 3..b-1.  The least image of every class is corner-least."""
    window = np.zeros((n + 1, n + 1, n + 1), dtype=dtype)
    ends, full = 1 | 1 << (n - 1), (1 << n) - 1
    for a in range(1, n + 1):
        lo, hi = a, n + 1 - a
        window[1:lo, a] = ends
        window[hi + 1 :, a] = ends
        window[n, a] |= (1 << (lo - 1)) - 1 | full & ~((1 << hi) - 1)
    for b in range(4, n + 1):
        window[3:b, 1, b] |= 2
    return window


class _Fifo:
    """The partial arrays of one length in _prefix_search: blocks, each a
    tuple of arrays whose last axis runs over the partial arrays, kept in
    the order they were put."""

    def __init__(self) -> None:
        self.blocks: deque[tuple[np.ndarray, ...]] = deque()
        self.start = 0  # the rows of the first block already taken
        self.rows = 0

    def put(self, block: tuple[np.ndarray, ...]) -> None:
        if len(block[-1]):
            self.blocks.append(block)
            self.rows += len(block[-1])

    def take(self, count: int) -> tuple[np.ndarray, ...]:
        """The first count rows (all, if fewer), as one block."""
        count = min(count, self.rows)
        self.rows -= count
        parts = []
        while count:
            block, start = self.blocks[0], self.start
            size = len(block[-1])
            stop = min(start + count, size)
            if stop == size:
                self.blocks.popleft()
                self.start = 0
            else:
                self.start = stop
            parts.append(tuple(x[..., start:stop] for x in block))
            count -= stop - start
        if len(parts) == 1:
            return parts[0]
        return tuple(np.concatenate(x, axis=-1) for x in zip(*parts))


def _mask_reach(n: int) -> int:
    """H, the longest column distance whose difference mask _prefix_search
    keeps at order n: max(1, floor((n - 1) / 2))."""
    return max(1, (n - 1) // 2)


def _prefix_search(n: int, prefixes: np.ndarray) -> np.ndarray:
    """The corner-least order-n Costas arrays (see _corner_window) that
    begin with a row of prefixes, an (m, k) matrix of first values with
    2 <= k <= n, as the rows of an int8 matrix: those of each prefix in
    lexicographic order, the prefixes in row order.  A prefix that repeats
    a value or a difference, or that no corner-least array begins with
    column by column, begins none: one sort of each prefix finds a
    repeated value, and core.costas_violations a repeated difference.

    The search runs over blocks of partial arrays.  A block is held by
    column: one int8 row per value column, one mask row per column
    distance d up to H = _mask_reach(n), the free values of each partial
    array's next column, and its used word, the bits of every value it
    holds.  One step (_grow) extends a block by one column.  The partial
    arrays of each length wait in one FIFO (_Fifo), which receives them in
    order, so the output stays in order.  Each step takes up to
    _BLOCK_ROWS rows from the front of the deepest FIFO that holds at
    least _BLOCK_ROWS // 4, or else of the shallowest that holds any: the
    search runs depth first once a block is large, and the small blocks
    that a deep step leaves are merged with the next ones into one step.
    A FIFO holds fewer than _BLOCK_ROWS // 4 rows whenever a step adds to
    it, which bounds the frontier's memory.  A step at length n - 1 gives
    arrays found.

    The mask of distance d has bit w - u + n - 1 for the values u, w of
    each pair of columns d apart, and bit n - 1, the difference 0: shifted
    right by n - u, for the value u d columns before the next one, it holds
    u at bit u - 1 and each candidate w that would repeat a difference at
    bit w - 1.  The used word blocks every value already placed, and the
    corner-least window of the next column and the first two values
    blocks the rest.

    Masks beyond distance H are not needed.  A repeat at distance d
    between the column pairs (j, j+d) and (j', j'+d), j < j', is also a
    repeat at distance e = j' - j between (j, j') and (j+d, j'+d), since
    v(j') - v(j) = v(j'+d) - v(j+d).  Both use the same four columns, so
    the search meets both when it places column j'+d, and e <= n-1-d, so
    every d > H has a partner e <= H.  So the free set of every partial
    array, and with it every step, is that of a search with a mask for
    every distance; at order 17 a deep partial array holds 8 masks in
    place of up to 15.
    """
    rows = np.array(prefixes, dtype=np.int8)
    ranked = np.sort(rows, axis=1)
    ok = (ranked[:, 1:] != ranked[:, :-1]).all(axis=1) & ~costas_violations(rows).any(axis=1)
    values = rows.T
    k = len(values)
    dtype = np.dtype(np.int32 if n <= 16 else np.int64)
    window = _corner_window(n, dtype)
    for j in range(k):
        ok &= (window[j + 1, values[0], values[1]] >> (values[j] - 1)) & 1 == 0
    values = values[:, ok]
    if k == n:
        return values.T
    # Every shift operand is of the mask dtype, so that promotion is the
    # same under every numpy version.
    one = dtype.type(1)
    reach = min(k - 1, _mask_reach(n))
    masks = np.empty((reach, values.shape[1]), dtype=dtype)
    for d in range(1, reach + 1):
        bits = one << (values[d:] - values[:-d]).astype(dtype) + (n - 1)
        masks[d - 1] = np.bitwise_or.reduce(bits, axis=0) | one << (n - 1)
    used = np.bitwise_or.reduce(one << (values - 1).astype(dtype), axis=0)
    shifts = (n - values[k - 1 : k - 1 - reach : -1]).astype(dtype)
    blocked = used | np.bitwise_or.reduce(masks >> shifts, axis=0)
    blocked |= window[k + 1, values[0], values[1]]
    fifos = [_Fifo() for _ in range(n)]
    fifos[k].put((values, masks, used, ~blocked & ((one << n) - 1)))
    # _grow reads the window of a column through one flat index of the
    # first two values.
    window = window.reshape(n + 1, -1)
    merge = _BLOCK_ROWS // 4
    found = []
    while live := [d for d in range(k, n) if fifos[d].rows]:
        depth = max((d for d in live if fifos[d].rows >= merge), default=live[0])
        values, masks, used, free = fifos[depth].take(_BLOCK_ROWS)
        if depth == n - 1:
            # The rows lie in the block, as in _grow.
            rows, cols = _free_values(n, free)
            found.append(np.vstack((values.take(rows, axis=1, mode="wrap"), cols.astype(np.int8) + 1)).T)
        else:
            fifos[depth + 1].put(_grow(n, window, values, masks, used, free))
    return np.concatenate(found) if found else np.empty((0, n), dtype=np.int8)


def _free_values(n: int, free: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(row, v - 1) for each value v of each row's free set, in row-major
    order, which keeps a block's children lexicographic."""
    # Bit v - 1 of a free set is column v - 1 of its row.
    little = free.dtype.newbyteorder("<")
    grid = np.unpackbits(
        free.astype(little, copy=False).view(np.uint8).reshape(-1, free.dtype.itemsize),
        axis=1, count=n, bitorder="little",
    )
    at = np.flatnonzero(grid.view(bool))
    rows = at // n
    at -= rows * n
    return rows, at


def _grow(
    n: int,
    window: np.ndarray,
    values: np.ndarray,
    masks: np.ndarray,
    used: np.ndarray,
    free: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One step of _prefix_search: the block of the children, one column
    longer, of a block of partial arrays, as (values, masks, used, free).
    The window is _corner_window's, indexed [column, (n + 1) a + b].

    A child is kept only when its own next column still has a free value.
    That column's blocked set has two parts.  One is per parent: the used
    word, the corner-least window of that column and the first two values,
    and the parent's masks of distance 2 and up, each shifted by the value
    one column later.  The other is per child: its new distance-1 mask,
    shifted by its value, since the bits a child adds to its longer
    distances, so shifted, are among its parent's distance-1 mask shifted
    by its value.  Only the kept children get value and mask rows; a child
    gains a mask while its parent's length is at most _mask_reach(n).  The
    temporaries are formed in place, as they set the search's peak memory.

    Every gather takes mode="wrap", which numpy runs without the bounds
    check and, for a 2-D take into out=, without the buffered copy of the
    default mode="raise"; so every index must lie in its array, and does.
    The rows index the block's own columns, since each position at of
    _free_values' grid of len(free) rows by n has at // n < len(free).
    The kept positions index the (row, value) pairs that they were found
    among, and the corner index (n + 1) a + b of the first two values
    1 <= a, b <= n is below (n + 1)^2, the length of a window row.
    """
    k, reach = len(values), len(masks)
    dtype = masks.dtype
    one, top, full = (dtype.type(x) for x in (1, 1 << (n - 1), (1 << n) - 1))
    rows, cols = _free_values(n, free)
    v = cols.astype(dtype)
    v += 1
    shifts = (n - values[k - 1 : k - reach : -1]).astype(dtype)
    ahead = used | np.bitwise_or.reduce(masks[1:] >> shifts, axis=0)
    corner = values[0].astype(np.intp)
    corner *= n + 1
    corner += values[1]
    ahead |= window[k + 2].take(corner, mode="wrap")
    blocked = np.subtract(v, values[k - 1].take(rows, mode="wrap"), dtype=dtype)
    blocked += n - 1
    np.left_shift(one, blocked, out=blocked)
    blocked |= masks[0].take(rows, mode="wrap")
    blocked >>= n - v
    blocked |= ahead.take(rows, mode="wrap")
    free = np.invert(blocked, out=blocked)
    free &= full
    (keep,) = np.nonzero(free.astype(bool))
    rows, v, free = (x.take(keep, mode="wrap") for x in (rows, v, free))
    grown = np.empty((k + 1, len(rows)), dtype=np.int8)
    np.take(values, rows, axis=1, out=grown[:k], mode="wrap")
    grown[k] = v
    values = grown
    longer = min(k, _mask_reach(n))
    grown = np.empty((longer, len(rows)), dtype=dtype)
    np.take(masks, rows, axis=1, out=grown[:reach], mode="wrap")
    grown[reach:] = top
    bits = np.subtract(v, values[k - longer : k][::-1], dtype=dtype)
    bits += n - 1
    np.left_shift(one, bits, out=bits)
    grown |= bits
    used = used.take(rows, mode="wrap")
    v -= one
    used |= np.left_shift(one, v, out=v)
    return values, grown, used, free


def costas_values(n: int, limit: int = DEFAULT_ORDER_LIMIT) -> np.ndarray:
    """All Costas permutations of order n as the rows of an (N, n) value
    matrix, in lexicographic order.

    Orders above limit raise EnumerationLimitError, and orders above
    MAX_WORD_ORDER a ValueError, before any search starts."""
    if n < 1:
        raise ValueError("order must be >= 1")
    if n > limit:
        raise EnumerationLimitError(n, limit)
    if n > MAX_WORD_ORDER:
        raise ValueError(
            f"order {n} needs difference-mask bits up to {2 * n - 2}; the enumerator "
            f"keeps them in one 64-bit word for orders up to {MAX_WORD_ORDER}"
        )
    dtype = np.min_scalar_type(n)
    if n == 1:
        return np.ones((1, 1), dtype=dtype)
    # The search keeps the corner-least arrays, which hold the least image
    # of every class, so their square images are every array; a corner-least
    # array begins with at most ceil(n/2).
    half = (n + 1) // 2
    prefixes = [(a, b) for a in range(1, half + 1) for b in range(1, n + 1) if b != a]
    found = _prefix_search(n, np.array(prefixes)).astype(dtype)
    return distinct_rows(planar_images(found).reshape(-1, n))


def enumerate_costas_arrays(n: int, limit: int = DEFAULT_ORDER_LIMIT) -> list[Permutation]:
    """All Costas permutations of order n, in lexicographic order: the
    rows of costas_values as Permutations, built from that one matrix,
    which is checked once, not object by object.  This and array_classes
    are the package's only Permutation results, read by perfbench's
    arrays_o11 workload."""
    return _permutations(costas_values(n, limit))


def array_classes(arrays: Iterable[Permutation]) -> list[Permutation]:
    """One canonical representative per D4 class of the given arrays (all
    of one order), sorted: Permutations built from the one matrix of
    least images, which is checked once, not object by object."""
    rows = [p.values for p in arrays]
    if not rows:
        return []
    n = len(rows[0])
    if len(set(map(len, rows))) > 1:
        odd = next(len(row) for row in rows if len(row) != n)
        raise ValueError(
            f"arrays of orders {n} and {odd} mixed; "
            "the images of a list are taken within one order"
        )
    values = np.fromiter(itertools.chain.from_iterable(rows), np.min_scalar_type(n), count=len(rows) * n)
    values = least_image(planar_images(values.reshape(-1, n)))
    return _permutations(distinct_rows(values))


def total_mismatch(n: int, count: int) -> str | None:
    """Why a D4-closed list of count order-n Costas arrays cannot be
    complete, or None if count is the published total (or none is known)."""
    expected = COSTAS_ARRAY_TOTALS.get(n)
    if expected is None or count == expected:
        return None
    return (f"array list holds {count} Costas arrays of order {n}, "
            f"but there are {expected}; it cannot be complete")


# A table of N rows is keyed into R slots, R the least power of two with
# R >= _KEY_SPREAD * N, so that about one absent row in _KEY_SPREAD finds
# its key in use.
_KEY_SPREAD = 64


class _RowIndex:
    """Exact membership in a list of distinct value rows of order n.

    A row's key is ((row - 1) . w) mod R for fixed pseudo-random weights
    w_j < R, with R the least power of two with R >= _KEY_SPREAD * N, and
    occurs is a dense bool table of the keys of the list's rows: a filter,
    which every list row passes and about one absent row in _KEY_SPREAD
    does.  The scan forms the sums (row - 1) . w as float products cast to
    int32, so an index whose sums could reach 2^31 (n (n-1) R >= 2^31) is
    refused; no complete list of order <= 29 comes near, the largest being
    order 17's at 272 * 2^21, about 5.7e8.  Membership itself is position,
    the dict from each list row's bytes to its position that _prepare
    builds, so rows are looked up in the list's dtype only.
    """

    def __init__(self, values: np.ndarray, position: dict[bytes, int]):
        count, n = values.shape
        bits = (_KEY_SPREAD * count - 1).bit_length()
        # The scan's float products of zero-based value rows and weights,
        # cast to int32, are exact while every sum, below n (n-1) R, stays
        # below 2^31.
        if n * (n - 1) << bits >= 1 << 31:
            raise ValueError(
                f"row keys of order {n} over {1 << bits} slots reach 2^31; "
                "the scan's int32 row keys would not be exact"
            )
        self.mask = (1 << bits) - 1
        # Seeded weights from the random module (importing numpy.random
        # would add about 6 MB to a join's peak memory), drawn with
        # repetition since n may exceed R.
        self.weights = np.array(random.Random(0).choices(range(1 << bits), k=n), dtype=np.int64)
        self.occurs = np.zeros(1 << bits, dtype=bool)
        self.occurs[self.keys(values)] = True
        self.dtype = values.dtype
        self.position = position

    def keys(self, rows: np.ndarray) -> np.ndarray:
        """The keys of the rows of an (R, n) value matrix."""
        # In place: the int64 copy of a whole list is the join's largest
        # temporary outside the scan's blocks.
        zero_based = rows.astype(np.int64)
        zero_based -= 1
        return (zero_based @ self.weights) & self.mask

    def find(self, rows: np.ndarray) -> np.ndarray:
        """The position in the list of each row of an (R, n) value matrix
        of the list's dtype, or -1 where the row is absent."""
        # A row of another width never equals a list row byte for byte.
        if rows.dtype != self.dtype:
            raise TypeError(f"rows of dtype {rows.dtype} looked up in a table of dtype {self.dtype}")
        get = self.position.get
        return np.array([get(row, -1) for row in _row_keys(rows).tolist()], dtype=np.intp)


def _text(row: Iterable[int]) -> str:
    """A value row, of a matrix or a list, as messages and the CLI name
    it: (v1,...,vn)."""
    return "(" + ",".join(map(str, row)) + ")"


@dataclass(frozen=True)
class _Prepared:
    """What _prepare finds out about a list of N arrays, for _scan: each
    row's class, the classes numbered in the order of their least planar
    images; the rows in class order, each class's rows in list order
    (order), and the position in that order of each class's first member
    (firsts); each row's inverse_rows (inverse); and the dict from each
    row's bytes to its position in the list (position)."""

    classes: np.ndarray
    order: np.ndarray
    firsts: np.ndarray
    inverse: np.ndarray
    position: dict[bytes, int]


def _prepare(values: np.ndarray, n: int) -> _Prepared:
    """Sanity checks for a claimed-complete list of order-n Costas arrays,
    given as an integer value matrix (zero-padded, if of mixed orders),
    and the _Prepared record of the list, for _scan.  The checks run in
    this order: the matrix's shape, an empty list, duplicates, the wrong
    order, a row that is not a permutation of 1..n, a row that is not a
    Costas array, closure under the square symmetries.  The list's total
    is not checked here (class_report checks it), so a list that passes
    is closed but may be incomplete.

    Duplicates are found by the dict of the rows' bytes, which is smaller
    than the list exactly when two rows are equal; the scan looks rows up
    in the same dict.  One stable lexsort of the least planar images
    orders the classes by them and each class's rows by list order.  The
    Costas property is kept by the square symmetries, so a permutation is
    Costas exactly when its least image is: the check runs on one least
    image per class, and over the rows only to name the first faulty one.
    So does the closure test: a class is whole when its members times its
    stabilizer (the images of its first row in list order equal to that
    row) make 8, and the first row in list order of a class that is not
    whole is named.  A list with a row of the wrong order has the rows
    before that row checked the same way."""
    if values.ndim != 2 or len(values) and not values.shape[1]:
        raise ValueError(f"array list of shape {values.shape}; expected an (N, n) value matrix with n >= 1")
    if not len(values):
        raise ValueError("empty array list")
    # The list may come in any memory layout; row bytes need C order.
    position = dict(zip(_row_keys(np.ascontiguousarray(values)).tolist(), range(len(values))))
    if len(position) < len(values):
        raise ValueError("array list contains duplicates")
    wrong_order = np.count_nonzero(values, axis=1) != n
    if wrong_order.any():
        # The checks cover the arrays before the first one of the wrong
        # order, so that the first faulty array is the one named.  Those
        # rows have n nonzero values, so they are permutations of 1..n
        # exactly when their first n are.
        head = values[: int(np.argmax(wrong_order)), :n]
        _check_permutations(head, n)
        _check_costas(head)
        wrong = values[len(head)]
        row = wrong[wrong != 0]
        raise ValueError(f"array {_text(row)} has order {len(row)}, expected {n}")
    # Only for permutations is a row Costas exactly when its least image
    # is.  Every row has n nonzero values, so a wider row holds a 0.
    inverse = _check_permutations(values, n)
    images = planar_images(values, inverse)
    least = least_image(images)
    order = np.lexsort(least.T[::-1])
    ranked = least[order]
    starts = np.concatenate(([True], (ranked[1:] != ranked[:-1]).any(axis=1)))
    classes = np.empty(len(values), dtype=np.intp)
    classes[order] = np.cumsum(starts) - 1
    (firsts,) = np.nonzero(starts)
    members = np.diff(firsts, append=len(values))
    first_rows = order[firsts]
    if costas_violations(least[first_rows]).any():
        _check_costas(values)
    # The rows are distinct, so a class is whole when its members are as
    # many as its orbit: 8 over its stabilizer, the images of a member
    # equal to it, which has one size for every member of the class.
    stabilizer = (images[:, first_rows] == values[first_rows]).all(axis=2).sum(axis=0)
    short = (members * stabilizer != 8)[classes]
    if short.any():
        raise ValueError(
            f"array list is not closed under the square symmetries (image of "
            f"{_text(values[np.argmax(short)])} missing); it cannot be complete"
        )
    return _Prepared(classes, order, firsts, inverse, position)


def _check_permutations(values: np.ndarray, n: int) -> np.ndarray:
    """The inverse_rows of a value matrix; raise naming its first row that
    is not a permutation of 1..n, if any.  A row of values in 1..n writes
    only its own slots of the inverse scatter, and is a permutation when
    it leaves none of them 0."""
    bijective = ((values >= 1) & (values <= n)).all(axis=1)
    inverse = inverse_rows(values[bijective])
    bijective[bijective] = inverse.all(axis=1)
    if not bijective.all():
        raise ValueError(f"array {_text(values[np.argmin(bijective)])} is not a permutation of 1..{n}")
    return inverse


def _check_costas(values: np.ndarray) -> None:
    """Raise naming the first row of a value matrix that is not a Costas
    array, if any."""
    bad = np.flatnonzero(costas_violations(values)[:, 0])
    if len(bad):
        raise ValueError(f"array {_text(values[bad[0]])} is not a Costas array")


# First arrays per block meet about this many second arrays, so that the
# block's key matrix stays a few MB.
_BLOCK_PAIRS = 1 << 15


def _scan(values: np.ndarray, prepared: _Prepared) -> tuple[list[CostasCube], int]:
    """Canonical representatives, sorted, of the classes of the Costas
    cubes whose Projection A is the first member of its class and whose
    Projection B is of no lesser class and has a first value at most its
    last, from a list closed under the square symmetries (an (N, n) value
    matrix) and its _Prepared record, and the number of array classes
    among those cubes' projections.  The record gives the rows' classes,
    the class order and its first members, the inverses and the dict that
    _RowIndex looks rows up in."""
    classes, order, firsts = prepared.classes, prepared.order, prepared.firsts
    index = _RowIndex(values, prepared.position)
    # In class order each class's first member comes first, so the arrays
    # of no lesser class than a first array are the list from it on.
    ordered = classes[order]
    idx = values[order]
    n = idx.shape[1]
    inverses = prepared.inverse[order]
    # An array and its reversal are of one class: the second arrays, in
    # class order, are those whose first value is at most their last, and
    # those from a first array on begin at its position among them.
    (seconds,) = np.nonzero(idx[:, 0] <= idx[:, -1])
    starts = np.searchsorted(seconds, firsts)
    second_rows = idx[seconds] - 1
    # The key of A^-1 B is z @ weights[b] mod R for the zero-based inverse
    # z of A, and the float product is exact.  Column s of the weight
    # matrix is the weights of second array s, and row t of the float
    # matrix is the inverse of first array t.
    weights = np.ascontiguousarray(index.weights.astype(float)[inverses[seconds] - 1].T)
    first_inverses = inverses[firsts].astype(float) - 1
    # The hit cubes of every block, as rows j_1, k_1, ..., j_n, k_n, and
    # the classes of their projections A, B and C.
    hits, projected = [], []
    start = 0
    while start < len(firsts):
        lo = starts[start]
        width = len(seconds) - lo
        step = max(1, _BLOCK_PAIRS // width)
        block, block_starts = firsts[start : start + step], starts[start : start + step]
        # Projection C of the cube with projections (A, B) is A^-1 B: its
        # key is linear in A^-1, and only pairs whose key occurs are looked
        # up.  The filter reads the block's keys raveled.
        keys = (first_inverses[start : start + step] @ weights[:, lo:]).astype(np.int32).ravel()
        start += step
        keys &= index.mask
        second = np.flatnonzero(np.take(index.occurs, keys))
        first = second // width
        second -= first * width
        second += lo
        # The block's later first arrays keep only the second arrays from
        # their own position on.
        keep = second >= block_starts[first]
        first, second = first[keep], second[keep]
        z = inverses[block]
        c_rows = z[first[:, None], second_rows[second]]
        c_at = index.find(c_rows)
        hit = c_at >= 0
        a_at, b_at = block[first[hit]], seconds[second[hit]]
        hits.append(np.stack((inverses[a_at], inverses[b_at]), axis=2).reshape(-1, 2 * n))
        projected.append(np.concatenate((ordered[a_at], ordered[b_at], classes[c_at[hit]])))
    rows = np.concatenate(hits)  # big-endian keys sort as the rows they encode
    cubes = decode_keys(sorted(class_keys(rows)[1]), rows.dtype)
    return cubes, len(np.unique(np.concatenate(projected)))


@dataclass(frozen=True)
class ClassReport:
    """Class counts for one order (cubes, projection arrays, all arrays)
    and one canonical representative per cube class."""

    order: int
    cube_classes: int
    projection_array_classes: int
    total_array_classes: int
    representatives: tuple[CostasCube, ...] = ()

    def __post_init__(self) -> None:
        if min(self.cube_classes, self.projection_array_classes, self.total_array_classes) < 0:
            raise ValueError("counts must be non-negative")
        if self.projection_array_classes > self.total_array_classes:
            raise ValueError("projection classes cannot exceed total classes")


def class_report(n: int, values: np.ndarray) -> ClassReport:
    """The class report of order n from a complete list of order-n Costas
    arrays, given as a value matrix, with one canonical representative per
    cube class, from the pair-join; see the module docstring for why the
    join reaches every class.  The list is prepared once (_prepare), which
    checks that it is a closed list of distinct order-n Costas arrays;
    then its count is checked against the published total, and an order
    with no published total (COSTAS_ARRAY_TOTALS) is refused, as no list
    of that order can be shown complete; then the scan reads the
    preparation's record.  The total number of array classes is the
    number of classes the preparation numbers.  A matrix not of integers
    is refused, by its dtype, before any check, and one that is not 2-D or
    has no columns by the preparation's first check."""
    if n < 1:
        raise ValueError("order must be >= 1")
    values = np.asarray(values)
    if values.dtype.kind not in "iu":
        raise ValueError(f"array list of dtype {values.dtype}; expected an integer dtype")
    prepared = _prepare(values, n)
    mismatch = total_mismatch(n, len(values))
    if mismatch:
        raise ValueError(mismatch)
    if n not in COSTAS_ARRAY_TOTALS:
        raise ValueError(f"no published total of Costas arrays of order {n}; "
                         "an array list of that order cannot be shown complete")
    cubes, projection_classes = _scan(values, prepared)
    return ClassReport(
        order=n,
        cube_classes=len(cubes),
        projection_array_classes=projection_classes,
        total_array_classes=len(prepared.firsts),
        representatives=tuple(cubes),
    )


def table1(max_n: int) -> list[ClassReport]:
    """Class reports for orders 2..max_n, each from the Costas arrays
    enumerated in-process; an order above the limit raises before any
    search starts."""
    if max_n < 2:
        raise ValueError(f"max order {max_n} is below 2, the least order Table 1 lists")
    if max_n > DEFAULT_ORDER_LIMIT:
        raise EnumerationLimitError(max_n, DEFAULT_ORDER_LIMIT)
    return [class_report(n, costas_values(n)) for n in range(2, max_n + 1)]
