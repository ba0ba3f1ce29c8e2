import json
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from costas_cubes import files
from costas_cubes.cli import main
from costas_cubes.core import CostasCube
from costas_cubes.files import (
    array_line_numbers,
    array_lines,
    emit_array_file,
    emit_cube_file,
    parse_array_file,
    parse_cube_file,
)

from conftest import GF16_J, GF16_K, ORDER6_TRIPLES, cube_from_jk, numbered_arrays, value_matrix


def test_array_file_round_trip():
    rows = [(2, 4, 5, 1, 6, 3), (3, 5, 4, 2, 6, 1)]
    text = emit_array_file(rows, comments=["two known arrays"])
    assert parse_array_file(text).tolist() == [list(row) for row in rows]
    assert text.startswith("# two known arrays\n")


def test_array_file_errors_carry_line_numbers():
    with pytest.raises(ValueError, match="line 3"):
        parse_array_file("# ok\n1 2\n1 1\n")
    with pytest.raises(ValueError, match="line 2"):
        parse_array_file("2 1\n1 two\n")
    with pytest.raises(ValueError, match="no permutations"):
        parse_array_file("# nothing here\n")


def _spelled(draw, value: int) -> str:
    """One token for value: plain, or in another spelling that int()
    reads alike, or (rarely) a token that is not value at all."""
    style = draw(st.sampled_from(
        ["plain"] * 6 + ["sign", "zeros", "underscore", "arabic", "fullwidth", "other"]))
    if style == "sign":
        return "+" + str(value)
    if style == "zeros":
        return "0" * draw(st.integers(1, 3)) + str(value)
    if style == "underscore":
        return "0_" + str(value)
    if style == "arabic":
        return "".join(chr(0x660 + int(d)) for d in str(value))
    if style == "fullwidth":
        return "".join(chr(0xFF10 + int(d)) for d in str(value))
    if style == "other":
        return draw(st.sampled_from(["0", "-1", "two", "1.0", "_1", "1__0", "9" * 20, "-" + "9" * 20]))
    return str(value)


@st.composite
def array_texts(draw) -> str:
    """Array files with comment and blank lines, mixed line endings and
    blanks, respelled values, and now and then a ragged or faulty line."""
    n = draw(st.integers(1, 5))
    lines = []
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["array"] * 5 + ["comment", "blank", "ragged"]))
        if kind == "comment":
            lines.append(draw(st.sampled_from(["", " ", "\t"])) + "# " + draw(st.sampled_from(["", "1 2", "x"])))
        elif kind == "blank":
            lines.append(draw(st.sampled_from(["", " ", "\t ", "  "])))
        else:
            k = draw(st.integers(1, 6)) if kind == "ragged" else n
            values = draw(st.permutations(range(1, k + 1)))
            if values and draw(st.booleans()) and kind == "ragged":
                values = values[:-1] or values + [values[0]]
            tokens = [_spelled(draw, v) for v in values]
            seps = [draw(st.sampled_from([" ", "  ", "\t", " \t"])) for _ in tokens]
            lead, trail = (draw(st.sampled_from(["", " ", "\t"])) for _ in range(2))
            lines.append(lead + "".join(s + t for s, t in zip([""] + seps, tokens)) + trail)
    ends = [draw(st.sampled_from(["\n", "\r\n", "\r"])) for _ in lines]
    return "".join(line + end for line, end in zip(lines, ends))


@given(array_texts())
def test_parse_array_file_matches_numbered_arrays(text):
    """parse_array_file reads what the per-line oracle numbered_arrays
    reads, and fails with its message where it fails; it never raises
    OverflowError.  array_lines and array_line_numbers give the lines the
    oracle reads, and their numbers."""
    numbered = [(no, raw) for no, raw in enumerate(text.splitlines(), start=1)
                if raw.strip() and not raw.strip().startswith("#")]
    assert list(zip(array_line_numbers(text), array_lines(text), strict=True)) == numbered
    try:
        expected = value_matrix([p for _, p in numbered_arrays(text)])
    except ValueError as exc:
        with pytest.raises(ValueError) as raised:
            parse_array_file(text)
        assert str(raised.value) == str(exc)
    else:
        values = parse_array_file(text)
        assert values.dtype == expected.dtype
        assert np.array_equal(values, expected)


def test_parse_array_file_needs_every_line_at_full_width():
    """The tokens of the lines 1 2 / 1 2 1 / 2 regroup into three rows
    1 2, but the second line is not a bijection."""
    with pytest.raises(ValueError, match=r"^line 2: \(1, 2, 1\) is not a bijection on 1..3$"):
        parse_array_file("1 2\n1 2 1\n2\n")
    assert parse_array_file("2 1\n1\n").tolist() == [[2, 1], [1, 0]]


ORDER11_DATABASE = Path(__file__).parents[1] / "perfbench" / "data" / "costas_order11.txt"


def test_mixed_order_file_reads_line_by_line(tmp_path, monkeypatch, capsys):
    """The order-11 database with lines of orders 6, 1 and 5 put in is
    refused by the one np.loadtxt call, as its lines are ragged, and read
    line by line into the value matrix of the per-line oracle; verify array
    and classify array print what they print when the C reader is never
    tried."""
    lines = ORDER11_DATABASE.read_text().splitlines(keepends=True)
    lines[40:40] = ["1 2 4 3 6 5\n", "# a comment\n", "1\n"]
    lines[3000:3000] = ["\t2 4 5 1 3\n"]
    text = "".join(lines)
    path = tmp_path / "mixed.txt"
    path.write_text(text)
    expected = value_matrix([p for _, p in numbered_arrays(text)])
    assert expected.shape == (4371, 11)
    read = np.loadtxt
    calls = []

    def counted(lines, **kwargs):
        calls.append(len(lines))
        return read(lines, **kwargs)

    def argv():
        return [[cmd, "array", str(path)] + fmt for cmd in ("verify", "classify") for fmt in ([], ["--format", "machine"])]

    monkeypatch.setattr(np, "loadtxt", counted)
    values = parse_array_file(text)
    assert calls == [4371]
    assert values.dtype == expected.dtype and np.array_equal(values, expected)
    tried = [(main(a), capsys.readouterr()) for a in argv()]
    monkeypatch.setattr(np, "loadtxt", lambda *args, **kwargs: pytest.fail("loadtxt called"))
    monkeypatch.setattr(files, "_bijections", lambda lines: None)
    assert [(main(a), capsys.readouterr()) for a in argv()] == tried
    assert [code for code, _ in tried] == [1, 1, 0, 0]


@pytest.mark.filterwarnings("error")
def test_parse_array_file_takes_no_warned_read(monkeypatch):
    """A token that numpy's reader takes only with a warning (older numpy
    reads 1.0 as an integer) is read again line by line, and a file
    with no array lines never reaches the reader."""
    message = r"^line 1: invalid literal for int\(\) with base 10: '1.0'$"
    with pytest.raises(ValueError, match=message):
        parse_array_file("1.0 2\n2 1\n")
    read = np.loadtxt

    def warned(lines, **kwargs):
        """The older reading: 1.0 as the integer 1, with a warning."""
        warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.", DeprecationWarning)
        return read([line.replace(".0", "") for line in lines], **kwargs)

    monkeypatch.setattr(np, "loadtxt", warned)
    # The warned read is refused under the caller's filters too.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(ValueError, match=message):
            parse_array_file("1.0 2\n2 1\n")
    monkeypatch.setattr(np, "loadtxt", lambda *args, **kwargs: pytest.fail("loadtxt called"))
    with pytest.raises(ValueError, match="^no permutations found$"):
        parse_array_file("# only a comment\n\n  \n")


def test_cube_file_text_round_trip():
    cube = CostasCube.from_triples(ORDER6_TRIPLES)
    text = emit_cube_file(cube, comments=["known order-6 cube"])
    assert parse_cube_file(text) == cube


def test_cube_file_json_round_trip(capsys):
    cube = CostasCube.from_triples(ORDER6_TRIPLES)
    doc = {"order": 6, "triples": [list(t) for t in cube.triples()]}
    assert parse_cube_file(json.dumps(doc)) == cube
    # extra keys are ignored on the way back in
    doc["projections"] = {"A": [3, 5, 4, 2, 6, 1]}
    assert parse_cube_file(json.dumps(doc)) == cube
    # so the CLI's machine output of a cube is itself a cube file
    assert main(["construct", "cube-g2x3", "--field", "2^4:1,0,0,1,1", "--phi", "x",
                 "--rho", "1+x^2+x^3", "--psi", "x+x^2+x^3", "--format", "machine"]) == 0
    assert parse_cube_file(capsys.readouterr().out) == cube_from_jk(GF16_J, GF16_K)


def test_cube_file_structural_errors():
    with pytest.raises(ValueError, match="j coordinates"):
        parse_cube_file("1 1 1\n2 1 2\n")
    with pytest.raises(ValueError, match="i coordinates"):
        parse_cube_file("1 1 1\n1 2 2\n")
    with pytest.raises(ValueError, match="expected 'i j k'"):
        parse_cube_file("1 1\n")
    with pytest.raises(ValueError, match="declared order"):
        parse_cube_file(json.dumps({"order": 3, "triples": [[1, 1, 1]]}))
    # The order is a JSON integer, not a string or a float of the right value.
    three = [[1, 1, 1], [2, 2, 3], [3, 3, 2]]
    for order in ("3", 3.0):
        with pytest.raises(ValueError, match=f"^bad order {order!r}$"):
            parse_cube_file(json.dumps({"order": order, "triples": three}))
    with pytest.raises(ValueError, match="bad triple"):
        parse_cube_file(json.dumps({"triples": [[1, 1]]}))
    with pytest.raises(ValueError, match="bad JSON"):
        parse_cube_file("{not json")
