import functools
import hashlib
import itertools
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from costas_cubes import enumeration, symmetry
from costas_cubes.construct import default_field, g2, w1
from costas_cubes.core import (
    CostasCube,
    Permutation,
    costas_violation,
    first_non_costas,
    is_costas_cube,
    projections,
    value_matrix,
)
from costas_cubes.enumeration import (
    MAX_WORD_ORDER,
    ClassReport,
    EnumerationLimitError,
    _RowIndex,
    _check_complete,
    array_classes,
    class_report,
    costas_values,
    enumerate_costas_arrays,
    table1,
)
from costas_cubes.files import parse_array_file
from costas_cubes.reference import COSTAS_ARRAY_TOTALS, CUBE_CLASS_COUNTS
from costas_cubes.symmetry import PLANAR_SYMMETRIES, canonical_cube

from conftest import (
    array_class_size_oracle,
    costas_arrays,
    costas_cube_classes,
    cube_from_pair,
    image,
    least_image_oracle,
    order7_without_one_class,
    projection_class_count,
)

# The join benchmark's input: the 4368 order-11 Costas arrays.
ORDER11_DATABASE = Path(__file__).parents[1] / "perfbench" / "data" / "costas_order11.txt"


def brute_force_costas(n):
    """Filter all n! permutations; checks none of the backtracking logic."""
    return [
        Permutation(vals)
        for vals in itertools.permutations(range(1, n + 1))
        if costas_violation(Permutation(vals)) is None
    ]


@functools.cache
def backtrack_costas_arrays(n):
    """Oracle: depth-first backtracking, one column per recursion level,
    with the same incremental difference masks as the breadth-first
    search.  Cached: the breadth-first, prefix and block-path tests all
    read it for the same orders."""
    out: list[Permutation] = []
    values = [0] * n
    # masks[d] has bit (diff + n) set when value difference diff has been
    # seen between columns at distance d
    masks = [0] * n

    def extend(col: int, free: int) -> None:
        if col == n:
            out.append(Permutation(tuple(values)))
            return
        avail = free
        while avail:
            bit = avail & -avail
            avail ^= bit
            v = bit.bit_length() - 1
            shifts = []
            ok = True
            for d in range(1, col + 1):
                s = values[col - d] - v + n
                if (masks[d] >> s) & 1:
                    ok = False
                    break
                shifts.append((d, 1 << s))
            if not ok:
                continue
            for d, b in shifts:
                masks[d] |= b
            values[col] = v
            extend(col + 1, free ^ bit)
            for d, b in shifts:
                masks[d] ^= b

    extend(0, (1 << (n + 1)) - 2)
    return tuple(out)


def test_breadth_first_matches_backtracking_oracle():
    """Content and order, for even and odd orders: the complement merge
    and, for odd n, the self-complementary middle first value."""
    for n in range(1, 11):
        assert tuple(enumerate_costas_arrays(n)) == backtrack_costas_arrays(n)


@pytest.mark.parametrize("n", [6, 7])
def test_complement_merge_of_an_empty_group(monkeypatch, n):
    """A searched first value with no arrays leaves its complement group
    empty too; the other groups are unchanged."""
    expected = [p for p in costas_arrays(n) if p.values[0] not in (2, n - 1)]
    search = enumeration._prefix_search

    def without_first_value_2(order, prefixes):
        found = search(order, prefixes)
        return found[found[:, 0] != 2]

    monkeypatch.setattr(enumeration, "_prefix_search", without_first_value_2)
    assert enumerate_costas_arrays(n) == expected


@pytest.mark.parametrize("n", range(2, 11))
def test_prefix_search_matches_backtracking_oracle(n):
    """Every two-value prefix as a one-row prefix matrix, those that begin
    no array and those that repeat a value included: n = 2 takes no step,
    and for n = 3 the first step is the last.  All of them as one matrix
    give the same rows, in the order of the prefixes."""
    oracle = np.array([p.values for p in backtrack_costas_arrays(n)])
    pairs = list(itertools.product(range(1, n + 1), repeat=2))
    expected = []
    for a, b in pairs:
        found = enumeration._prefix_search(n, np.array([[a, b]]))
        assert found.dtype == np.int8 and found.shape[1] == n
        expected.append(oracle[(oracle[:, 0] == a) & (oracle[:, 1] == b)])
        np.testing.assert_array_equal(found, expected[-1])
    np.testing.assert_array_equal(enumeration._prefix_search(n, np.array(pairs)), np.concatenate(expected))


@pytest.mark.parametrize("block", [1, 5, 64])
def test_block_path_matches_backtracking_oracle(monkeypatch, block):
    """With grown blocks split into slices of 1, 5 or 64 rows, the search
    still gives every array in order; prefixes as long as the order are
    returned as they are, less those that repeat a value or a difference."""
    monkeypatch.setattr(enumeration, "_BLOCK_ROWS", block)
    for n in range(1, 11):
        oracle = [p.values for p in backtrack_costas_arrays(n)]
        assert [tuple(v) for v in costas_values(n).tolist()] == oracle
    full = np.array([[1, 2], [2, 2], [2, 1]])
    np.testing.assert_array_equal(enumeration._prefix_search(2, full), [[1, 2], [2, 1]])
    full = np.array([[1, 3, 2], [1, 2, 3], [2, 3, 1]])
    np.testing.assert_array_equal(enumeration._prefix_search(3, full), [[1, 3, 2], [2, 3, 1]])


@pytest.mark.parametrize(
    "seed",
    [
        w1(17, 3),  # order 16, the last with int32 masks
        g2(default_field(19), 2, 2),  # order 17, the first with int64 masks
        w1(23, 5),
        w1(31, 3),  # order 30
    ],
    ids=lambda p: f"order{p.order}",
)
def test_prefix_search_completes_a_long_prefix(seed):
    """Seeded with all but the last four values of a constructed array,
    the search finds that array among Costas arrays of that prefix."""
    n = seed.order
    found = enumeration._prefix_search(n, np.array([seed.values[: n - 4]]))
    assert found.dtype == np.int8 and found.shape[1] == n
    assert seed.values in set(map(tuple, found.tolist()))
    assert (found[:, : n - 4] == seed.values[: n - 4]).all()
    assert (np.sort(found, axis=1) == np.arange(1, n + 1)).all()
    assert first_non_costas(found) is None


def test_word_size_guard_rejects_before_searching(monkeypatch):
    searched = []
    monkeypatch.setattr(enumeration, "_prefix_search", lambda *args: searched.append(args))
    for n in (40, MAX_WORD_ORDER + 1):
        with pytest.raises(ValueError, match=rf"order {n} .*64-bit word") as err:
            enumerate_costas_arrays(n, limit=40)
        assert not isinstance(err.value, EnumerationLimitError)
    assert searched == []


@pytest.mark.parametrize(
    "n, count, digest",
    [
        (11, 4368, "c977639eb635da476714bdd93f134763fff0eb4c53e044ade06857f332dddf06"),
        (12, 7852, "2fdab762aa40a869115f284e86a02f024abcc322e903b377549882f12d44ee19"),
    ],
)
def test_costas_values_golden(n, count, digest):
    """The rows, their order and the dtype, byte for byte.  Every shift
    operand of the search has the mask dtype, so these hold under numpy's
    value-based casting (before 2.0) and under NEP 50 alike."""
    values = costas_values(n)
    assert values.shape == (count, n) and values.dtype == np.uint8
    assert hashlib.sha256(values.tobytes()).hexdigest() == digest


def test_backtracking_matches_brute_force():
    for n in range(1, 7):
        assert enumerate_costas_arrays(n) == brute_force_costas(n)


def test_enumeration_is_lexicographic():
    arrays = enumerate_costas_arrays(6)
    assert arrays == sorted(arrays, key=lambda p: p.values)


def test_enumeration_limit_error():
    with pytest.raises(EnumerationLimitError, match="database"):
        enumerate_costas_arrays(14)
    assert enumerate_costas_arrays(5, limit=5)
    with pytest.raises(ValueError):
        enumerate_costas_arrays(0)


def test_class_counts():
    assert len(array_classes(costas_arrays(5))) == 6
    assert len(array_classes(costas_arrays(6))) == 17
    assert len(array_classes(costas_arrays(7))) == 30


def test_raw_count_consistent_with_class_sizes():
    for n in (5, 6, 7):
        reps = array_classes(costas_arrays(n))
        assert sum(array_class_size_oracle(p) for p in reps) == len(costas_arrays(n))


def test_pair_join_class_counts():
    assert len(costas_cube_classes(4)) == 2
    assert len(costas_cube_classes(5)) == 13
    assert len(costas_cube_classes(6)) == 47


def test_pair_join_representatives_are_canonical_costas_cubes():
    for cube in costas_cube_classes(5):
        assert is_costas_cube(cube)
        assert canonical_cube(cube) == cube


def _dense_pair_join(n):
    """Independent oracle: expand class representatives to full orbits,
    then test Projection C of every ordered pair directly."""
    reps = array_classes(costas_arrays(n))
    arrays = sorted(
        {image(s, p).values for p in reps for s in PLANAR_SYMMETRIES}
    )
    found = set()
    for a_vals in arrays:
        for b_vals in arrays:
            cube = cube_from_pair("AB", Permutation(a_vals), Permutation(b_vals))
            if costas_violation(projections(cube).c) is None:
                found.add(canonical_cube(cube).rows)
    return sorted(found)


def test_pair_join_matches_dense_oracle():
    for n in range(2, 8):
        assert [c.rows for c in costas_cube_classes(n)] == _dense_pair_join(n)


def test_one_first_array_per_block(monkeypatch):
    """Blocks of one first array each, some of which hit nothing (orders
    4, 5, 7 and 8), give the same classes as the default blocks."""
    expected = {n: costas_cube_classes(n) for n in range(2, 9)}
    monkeypatch.setattr(enumeration, "_BLOCK_PAIRS", 1)
    for n, cubes in expected.items():
        assert class_report(n, costas_values(n)).representatives == cubes


@pytest.mark.parametrize("n", [5, 16, 22, 29])
def test_row_index_matches_a_dict_oracle(monkeypatch, n):
    """The row index of tables of distinct permutation rows, in groups of
    1 to 4 rows that share all but their last three values; hits, misses
    and near misses (the last two values swapped) against a dict of the
    table.  At the join's key spread most keys hold one row; at a spread
    of 1 many keys hold several, and find walks their ranges."""
    rng = np.random.default_rng(n)
    rows = set()
    for _ in range(60):
        head = rng.permutation(n)
        for _ in range(rng.integers(1, 5)):
            rows.add(tuple(head[: n - 3]) + tuple(rng.permutation(head[n - 3 :])))
    table = np.array(sorted(rows), dtype=np.uint8)[rng.permutation(len(rows))]
    near = table.copy()
    near[:, [-2, -1]] = near[:, [-1, -2]]
    misses = np.array([rng.permutation(n) for _ in range(200)], dtype=np.uint8)
    queries = np.concatenate((table[rng.permutation(len(table))], near, misses))
    position = {row: at for at, row in enumerate(map(tuple, table.tolist()))}
    want = [position.get(tuple(q), -1) for q in queries.tolist()]
    assert any(w < 0 for w in want) and any(w >= 0 for w in want[len(table) :])
    for spread in (enumeration._KEY_SPREAD, 1):
        monkeypatch.setattr(enumeration, "_KEY_SPREAD", spread)
        index = _RowIndex(table)
        slots = index.mask + 1
        assert slots >= spread * len(table) > slots // 2
        assert (index.weights < slots).all()
        assert sorted(index.order.tolist()) == list(range(len(table)))
        assert (index.table == table[index.order]).all()
        keys = index.keys(index.table)
        widths = np.diff(index.starts)
        assert (np.repeat(index.distinct, widths) == keys).all()
        if spread == 1:
            assert widths.max() > 1
        assert index.find(queries, index.keys(queries)).tolist() == want


def test_row_index_takes_more_weights_than_key_slots():
    """An order-70 row needs more weights than a one-row table has key
    slots (64): the weights repeat, and the row is still found exactly."""
    welch70 = np.array([[pow(7, i, 71) - 1 for i in range(70)]], dtype=np.uint8)
    index = _RowIndex(welch70)
    assert len(index.weights) == 70 > index.mask + 1 == 64
    queries = np.concatenate((welch70, welch70[:, ::-1]))
    assert index.find(queries, index.keys(queries)).tolist() == [0, -1]


def test_row_index_rejects_inexact_keys(monkeypatch):
    """Row products reaching 2^53 would be rounded in float: the index
    refuses them before it allocates its key table."""
    table = np.array([np.arange(29)], dtype=np.uint8)
    monkeypatch.setattr(enumeration, "_KEY_SPREAD", 1 << 44)
    with pytest.raises(ValueError, match=r"2\^53"):
        _RowIndex(table)


@pytest.mark.parametrize("n", [5, 11, 29])
def test_pair_weights_give_the_keys_of_a_inverse_b(n):
    """The key of A^-1 B is the product of the zero-based inverse of A
    with the weights gathered by the inverse of B, exact in float, masked
    to the key range; found by that key, A^-1 B is at its position in the
    given table (the identity, for B = A)."""
    rng = np.random.default_rng(n)
    rows = {tuple(rng.permutation(n)) for _ in range(300)} | {tuple(range(n))}
    values = np.array(sorted(rows), dtype=np.uint8)[rng.permutation(len(rows))]
    position = {row: at for at, row in enumerate(map(tuple, values.tolist()))}
    index = _RowIndex(values)
    inverses = np.argsort(values, axis=1).astype(np.uint8)
    products = inverses @ index.weights.astype(float)[inverses].T
    keys = products.astype(np.int64) & index.mask
    assert (products == np.rint(products)).all() and products.max() < 2**53
    for a in range(0, len(values), 37):
        c_rows = inverses[a][values]
        assert keys[a].tolist() == index.keys(c_rows).tolist()
        want = [position.get(row, -1) for row in map(tuple, c_rows.tolist())]
        assert want[a] == position[tuple(range(n))]
        assert index.find(c_rows, keys[a]).tolist() == want


def _unrestricted_join(arrays):
    """Oracle: every array as Projection A against every array as
    Projection B, Projection C = A^-1 B looked up in a set of the row
    bytes of the list, and every hit canonicalised."""
    values = np.array([p.values for p in arrays], dtype=np.uint8)
    count, n = values.shape
    members = set(map(bytes, values))
    inverses = np.argsort(values, axis=1).astype(np.uint8) + 1
    found = set()
    for start in range(0, count, 64):
        c_rows = inverses[start : start + 64][:, values - 1].reshape(-1, n)
        c_bytes = c_rows.view(np.dtype((np.void, n))).ravel().tolist()
        for pair in np.nonzero(list(map(members.__contains__, c_bytes)))[0]:
            a, b = divmod(start * count + int(pair), count)
            cube = CostasCube(tuple(zip(inverses[a].tolist(), inverses[b].tolist())))
            found.add(canonical_cube(cube).rows)
    return sorted(found)


def test_class_ordered_join_matches_unrestricted_join():
    """First arrays restricted to class representatives and second arrays
    to classes no less than the first's lose no class."""
    for n in range(2, 11):
        arrays = costas_arrays(n)
        assert [c.rows for c in class_report(n, value_matrix(arrays)).representatives] == _unrestricted_join(arrays)


def _class_ordered_hits(values, classes):
    """Oracle: (B's position, hit cube, classes of A, B and C) for every
    pair (A, B) of a value matrix with A the first row in list order of
    its class and B of no lesser class, C = A^-1 B looked up in a dict of
    the row bytes of the list."""
    values = np.ascontiguousarray(values, dtype=np.uint8)
    n = values.shape[1]
    position = {row: at for at, row in enumerate(map(bytes, values))}
    inverses = np.argsort(values, axis=1).astype(np.uint8) + 1
    _, firsts = np.unique(classes, return_index=True)
    hits = []
    for a in firsts.tolist():
        (b_at,) = np.nonzero(classes >= classes[a])
        c_rows = inverses[a][values[b_at] - 1]
        for b, c in zip(b_at.tolist(), c_rows.view(np.dtype((np.void, n))).ravel().tolist()):
            if c in position:
                cube = CostasCube(tuple(zip(inverses[a].tolist(), inverses[b].tolist())))
                hits.append((b, cube, {classes[a], classes[b], classes[position[c]]}))
    return hits


def test_join_keeps_one_of_each_reversal_pair(monkeypatch):
    """The k-flip (j_i, k_i) -> (j_i, n+1-k_i) takes the hit (A, B) to the
    hit (A, rev B) of the same cube class.  The scan keeps only the B
    whose first value is at most its last: it hands the class walk
    exactly the hits of the oracle's join over every B that keep this
    rule, half of them for n >= 2, and finds the same representatives and
    projection classes as the join over every B."""
    handed = []
    walk = enumeration.first_of_each_class

    def recorded(rows):
        handed.append(rows)
        return walk(rows)

    monkeypatch.setattr(enumeration, "first_of_each_class", recorded)
    lists = {n: costas_values(n) for n in range(1, 11)}
    lists[11] = parse_array_file(ORDER11_DATABASE.read_text())
    for n, values in lists.items():
        classes = _check_complete(values, n)
        every = _class_ordered_hits(values, classes)
        half = [cube for b, cube, _ in every if values[b, 0] <= values[b, -1]]
        assert len(every) == (len(half) if n == 1 else 2 * len(half)), n
        handed.clear()
        cubes, projection_classes = enumeration._scan(values, classes)
        (rows,) = handed
        assert sorted(map(tuple, rows.tolist())) == sorted(sum(cube.rows, ()) for cube in half), n
        forms = {canonical_cube(cube).rows for _, cube, _ in every}
        assert [c.rows for c in cubes] == sorted(forms), n
        assert projection_classes == len(set().union(*(found for _, _, found in every))), n
    assert (len(every), len(half)) == (164, 82)
    assert class_report(1, costas_values(1)).cube_classes == 1


def test_join_over_a_closed_incomplete_list():
    """The join's argument needs only closure under the square symmetries:
    over the order-7 arrays without one class, with classes numbered by
    least images one symmetry at a time, the scan finds the classes of
    the unrestricted join and their projection classes."""
    arrays = order7_without_one_class()
    least = [least_image_oracle(p) for p in arrays]
    number = {key: at for at, key in enumerate(sorted(set(least)))}
    classes = np.array([number[key] for key in least])
    cubes, projection_classes = enumeration._scan(value_matrix(arrays), classes)
    assert [c.rows for c in cubes] == _unrestricted_join(arrays) != []
    assert projection_classes == projection_class_count(cubes)


def test_join_output_does_not_depend_on_row_order():
    """The list's rows are indexed, and its classes ordered, by a hashed
    key of each row: seeded shuffles of a list give the report of the
    lexicographic list, representatives included."""
    lists = {n: costas_values(n) for n in (7, 8, 9)}
    lists[11] = parse_array_file(ORDER11_DATABASE.read_text())
    for n, values in lists.items():
        expected = class_report(n, values[np.lexsort(values.T[::-1])])
        assert expected.representatives == costas_cube_classes(n)
        for seed in range(3):
            shuffled = values[np.random.default_rng(seed).permutation(len(values))]
            assert class_report(n, shuffled) == expected


def test_join_canonicalises_once_per_class(monkeypatch):
    """Hits in the orbit of a class already found form no images."""
    expected = list(costas_cube_classes(8))
    calls = []
    row_images = symmetry._row_images

    def counted(row):
        calls.append(row)
        return row_images(row)

    monkeypatch.setattr(symmetry, "_row_images", counted)
    assert list(class_report(8, costas_values(8)).representatives) == expected
    assert len(calls) == len(expected) == 42


def test_array_totals_match_published_table():
    for n in range(1, 13):
        assert len(costas_arrays(n)) == COSTAS_ARRAY_TOTALS[n]


def test_completeness_checks_reject_bad_input():
    arrays = list(costas_arrays(5))
    with pytest.raises(ValueError, match="closed"):
        class_report(5, value_matrix(arrays[:-1]))
    with pytest.raises(ValueError, match="duplicates"):
        class_report(5, value_matrix(arrays + [arrays[0]]))
    with pytest.raises(ValueError, match="not a Costas"):
        class_report(4, value_matrix([Permutation((1, 2, 3, 4))]))
    with pytest.raises(ValueError, match="order"):
        class_report(6, value_matrix(arrays))
    with pytest.raises(ValueError, match="empty"):
        class_report(5, value_matrix([]))
    # An order-70 list reaches the closure check.
    welch70 = Permutation(tuple(pow(7, i, 71) for i in range(70)))
    with pytest.raises(ValueError, match="closed"):
        class_report(70, value_matrix([welch70]))
    closed = order7_without_one_class()
    with pytest.raises(ValueError, match=rf"holds {len(closed)} .* there are 200"):
        class_report(7, value_matrix(closed))


def test_closure_counts_the_images_equal_to_a_row():
    """A row's class is whole when its members times the images equal to
    it make 8.  Without one row of a class with a symmetric member (an
    orbit of 4 for n >= 3, of 2 at order 2), the first row in list order
    whose orbit is not wholly in the list is named; without the whole
    class, the list is closed and fails on its total (or is empty)."""
    for n in range(2, 9):
        arrays = list(costas_arrays(n))
        orbit = {p: frozenset(image(s, p) for s in PLANAR_SYMMETRIES) for p in arrays}
        symmetric = next(o for o in orbit.values() if len(o) < 8)
        assert len(symmetric) == (2 if n == 2 else 4)
        for gone in symmetric:
            rest = [p for p in arrays if p != gone]
            named = next(p for p in rest if gone in orbit[p])
            message = rf"image of \({','.join(map(str, named.values))}\) missing"
            with pytest.raises(ValueError, match=message):
                _check_complete(value_matrix(rest), n)
        rest = [p for p in arrays if p not in symmetric]
        message = rf"holds {len(rest)} Costas arrays" if rest else "empty"
        with pytest.raises(ValueError, match=message):
            _check_complete(value_matrix(rest), n)


def test_check_complete_messages_name_the_first_faulty_array():
    arrays = list(costas_arrays(6))
    line, wrong_order = Permutation((1, 2, 3, 4, 5, 6)), Permutation((1, 2))
    later = Permutation((6, 5, 4, 3, 2, 1))
    cases = [
        (arrays[:7] + [line] + arrays[7:] + [later], r"array \(1,2,3,4,5,6\) is not a Costas array"),
        (arrays[:7] + [line, wrong_order], r"array \(1,2,3,4,5,6\) is not a Costas array"),
        (arrays[:7] + [wrong_order, line], r"array \(1,2\) has order 2, expected 6"),
        (arrays + [arrays[9]], "array list contains duplicates"),
    ]
    # Without one array, the first array in list order that has it as an
    # image is named.
    missing = arrays[20]
    rest = (arrays[:20] + arrays[21:])[::-1]
    named = next(p for p in rest if missing in {image(s, p) for s in PLANAR_SYMMETRIES})
    cases.append((rest, rf"array list is not closed under the square symmetries "
                        rf"\(image of \({','.join(map(str, named.values))}\) missing\); "
                        "it cannot be complete"))
    for listed, message in cases:
        with pytest.raises(ValueError, match=rf"^{message}$"):
            _check_complete(value_matrix(listed), 6)


def test_costas_property_is_a_class_property():
    """A permutation is Costas exactly when its least planar image is, at
    every permutation of orders 1-7: the completeness check tests one
    least image per class."""
    for n in range(1, 8):
        values = np.array(list(itertools.permutations(range(1, n + 1))), dtype=np.uint8)
        least = symmetry.least_image(symmetry.planar_images(values))
        for row, key in zip(values.tolist(), least.tolist()):
            assert (costas_violation(Permutation(tuple(row))) is None) == (
                costas_violation(Permutation(tuple(key))) is None), row


@st.composite
def permutation_lists(draw):
    """An order n <= 7 and distinct permutations of it: some or all of its
    Costas arrays in a drawn order, with a few other permutations and some
    of their images put in at drawn places."""
    n = draw(st.integers(1, 7))
    arrays = list(costas_arrays(n))
    listed = draw(st.permutations(arrays)) if draw(st.booleans()) else draw(
        st.lists(st.sampled_from(arrays), unique=True, max_size=12))
    for _ in range(draw(st.integers(0, 3))):
        p = Permutation(tuple(draw(st.permutations(range(1, n + 1)))))
        for sym in draw(st.lists(st.sampled_from(PLANAR_SYMMETRIES), min_size=1, max_size=3)):
            listed.insert(draw(st.integers(0, len(listed))), image(sym, p))
    return n, list(dict.fromkeys(listed))


@given(permutation_lists())
def test_class_wise_costas_check_names_the_first_faulty_row(case):
    """The check on one least image per class fails exactly when
    first_non_costas over the rows finds a row, and its message names that
    row, the first faulty one in list order."""
    n, listed = case
    values = value_matrix(listed)
    bad = first_non_costas(values)
    try:
        _check_complete(values, n)
    except ValueError as exc:
        message = str(exc)
    else:
        message = None
    if bad is None:
        assert message is None or "not a Costas array" not in message
    else:
        assert message == f"array {listed[bad]} is not a Costas array"


def test_check_complete_refuses_rows_that_are_not_permutations():
    """Every list of four distinct rows over 1..3 that a row-wise Costas
    check passes and that holds a row which is not a permutation is
    refused, naming the first such row: 14 of them passed every check
    before this one, and class_report counted them."""
    rows = [row for row in itertools.product(range(1, 4), repeat=3) if row[1] - row[0] != row[2] - row[1]]
    checked = 0
    for listed in itertools.combinations(rows, 4):
        named = next((row for row in listed if sorted(row) != [1, 2, 3]), None)
        if named is None:
            continue
        message = rf"^array \({','.join(map(str, named))}\) is not a permutation of 1..3$"
        with pytest.raises(ValueError, match=message):
            _check_complete(np.array(listed, dtype=np.uint8), 3)
        checked += 1
    assert checked == 7314
    with pytest.raises(ValueError, match=r"^array \(2,1,2\) is not a permutation of 1..3$"):
        class_report(3, np.array([[1, 3, 2], [2, 1, 2], [2, 1, 3], [2, 3, 1]], dtype=np.uint8))
    # A row with n nonzero values but wider than n is no permutation of 1..n.
    with pytest.raises(ValueError, match=r"^array \(0,1\) is not a permutation of 1..1$"):
        _check_complete(np.array([[0, 1]]), 1)


def test_projection_class_count_examples():
    assert class_report(4, costas_values(4)).projection_array_classes == 1
    assert class_report(6, costas_values(6)).projection_array_classes == 17
    assert class_report(1, costas_values(1)).projection_array_classes == 1


def test_projection_class_count_matches_projection_sets():
    """class_report's count, read off the join's hits, equals the number of
    classes in the union of its representatives' projection sets: the least
    square images of their projections A, B and C, counted one image at a
    time."""
    reports = [class_report(n, costas_values(n)) for n in range(1, 11)]
    reports.append(class_report(11, parse_array_file(ORDER11_DATABASE.read_text())))
    for report in reports:
        want = projection_class_count(report.representatives)
        assert report.projection_array_classes == want, report.order
    assert reports[-1].projection_array_classes == 126


def test_class_report_validation():
    with pytest.raises(ValueError):
        ClassReport(5, -1, 0, 0)
    with pytest.raises(ValueError):
        ClassReport(5, 1, 7, 6)


def test_table1_small_rows():
    reports = {r.order: r for r in table1(8)}
    assert (reports[2].cube_classes, reports[2].projection_array_classes,
            reports[2].total_array_classes) == (1, 1, 1)
    assert (reports[8].cube_classes, reports[8].projection_array_classes,
            reports[8].total_array_classes) == (42, 44, 60)


def test_table1_accepts_supplied_databases():
    """A supplied database reaches class_report, past the enumeration limit;
    an incomplete one is refused."""
    assert class_report(5, value_matrix(costas_arrays(5))) == table1(5)[-1]
    assert class_report(5, value_matrix(costas_arrays(5))).cube_classes == 13
    with pytest.raises(EnumerationLimitError):
        costas_values(5, limit=4)
    with pytest.raises(ValueError, match="cannot be complete"):
        class_report(7, value_matrix(order7_without_one_class()))


def test_table1_representatives_flag():
    report = table1(4)[-1]
    assert report.representatives is not None
    assert len(report.representatives) == report.cube_classes
    assert all(isinstance(c, CostasCube) for c in report.representatives)


def test_class_report_total_is_representative_count():
    """The completeness check numbers each row's class by the rank of its
    least image among array_classes' sorted representatives, and the
    total array classes are their count."""
    for n in range(1, 9):
        arrays = costas_arrays(n)
        reps = array_classes(arrays)
        classes = _check_complete(value_matrix(arrays), n)
        assert [reps[c].values for c in classes.tolist()] == [least_image_oracle(p) for p in arrays]
        assert class_report(n, value_matrix(arrays)).total_array_classes == len(reps)
    # The first order and the first other order are named.
    four, five, six = costas_arrays(4), costas_arrays(5), costas_arrays(6)
    for mixed, named in ((four + five, "orders 4 and 5 mixed"), (five + four, "orders 5 and 4 mixed"),
                         (five[:2] + six[:1] + five[2:] + four, "orders 5 and 6 mixed")):
        with pytest.raises(ValueError, match=named):
            array_classes(mixed)


@pytest.mark.stretch
def test_search_memory_stays_bounded():
    """The search's numpy buffers, which numpy reports to tracemalloc,
    peak below 6 MiB at order 13: the frontier is held in bounded blocks."""
    tracemalloc.start()
    try:
        costas_values(13)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 << 20


@pytest.mark.stretch
def test_order_14_join_stretch():
    """The in-process reach: the order-14 search and pair-join, about 12 s."""
    # The same report counts 6 projection classes and 2168 array classes;
    # reference.py holds no published figure for either.
    arrays = costas_values(14, limit=14)
    assert len(arrays) == COSTAS_ARRAY_TOTALS[14] == 17252
    assert class_report(14, arrays).cube_classes == CUBE_CLASS_COUNTS[14] == 6
