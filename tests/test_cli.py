import contextlib
import functools
import hashlib
import io
import json
import random
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from costas_cubes import cli, construct, enumeration, reference
from costas_cubes.cli import main
from costas_cubes.construct import catalog, w1
from costas_cubes.core import CostasCube, Permutation
from costas_cubes.files import emit_array_file, emit_cube_file, parse_array_file, parse_cube_file
from costas_cubes.symmetry import least_image, planar_images

from conftest import (
    GF16_J,
    GF16_K,
    ORDER6_TRIPLES,
    P13_A,
    SMALL_SD_TRIPLES,
    costas_arrays,
    costas_violation_oracle,
    cube_from_jk,
    least_image_oracle,
    order7_without_one_class,
)


# The join benchmark's input: the 4368 order-11 Costas arrays.
ORDER11_DATABASE = Path(__file__).parents[1] / "perfbench" / "data" / "costas_order11.txt"


@pytest.fixture
def order6_file(tmp_path):
    path = tmp_path / "cube6.txt"
    path.write_text(emit_cube_file(CostasCube.from_triples(ORDER6_TRIPLES)))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# Golden CLI runs: each command below, in both output formats (import has
# one), over the input files of golden_inputs, run from the directory that
# holds them.  cli_golden.json holds each run's argv, exit code, stdout and
# stderr, and for import the normalized file it writes.
GOLDEN_COMMANDS = {
    "verify-array-costas": ["verify", "array", "costas.txt"],
    "verify-array-not-costas": ["verify", "array", "line.txt"],
    "verify-cube-order6": ["verify", "cube", "cube6.txt"],
    "verify-cube-not-costas": ["verify", "cube", "diagonal.txt"],
    "construct-w1": ["construct", "w1", "--field", "13", "--phi", "2", "--c", "3"],
    "construct-cube-g2x3": ["construct", "cube-g2x3", "--field", "2^4:1,0,0,1,1",
                            "--phi", "x", "--rho", "1+x^2+x^3", "--psi", "x+x^2+x^3"],
    "sd-set": ["sd-set", "cube6.txt"],
    "classify-array": ["classify", "array", "arrays.txt"],
    "classify-cube": ["classify", "cube", "cube6.txt"],
    "project": ["project", "cube6.txt"],
    "tables-1": ["tables", "--table", "1", "--max-order", "8"],
    "tables-2": ["tables", "--table", "2", "--max-order", "29"],
}
GOLDEN_IMPORT = ["import", "order5.txt", "--expect-order", "5", "--output", "order5.normalized"]
GOLDEN = json.loads((Path(__file__).parent / "cli_golden.json").read_text())


def golden_inputs() -> dict[str, str]:
    return {
        "costas.txt": "2 4 5 1 6 3\n",
        "line.txt": "1 2 3 4\n",
        "cube6.txt": emit_cube_file(CostasCube.from_triples(ORDER6_TRIPLES)),
        "diagonal.txt": "1 1 1\n2 2 2\n3 3 3\n4 4 4\n",
        "arrays.txt": emit_array_file([P13_A, (1, 2, 3, 4)]),
        "order5.txt": emit_array_file(p.values for p in costas_arrays(5)),
    }


def golden_cases() -> dict[str, list[str]]:
    """Case name -> argv."""
    cases = {f"{name} --format {fmt}": [*argv, "--format", fmt]
             for name, argv in GOLDEN_COMMANDS.items() for fmt in ("text", "machine")}
    cases["import"] = GOLDEN_IMPORT
    return cases


def golden_run(argv: list[str]) -> dict:
    """One CLI run in the current directory, which holds golden_inputs."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    run = {"argv": argv, "code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}
    if argv[0] == "import":
        run["written"] = Path(argv[-1]).read_text()
    return run


def test_golden_covers_every_case():
    assert sorted(GOLDEN) == sorted(golden_cases())


@pytest.mark.parametrize("case", sorted(golden_cases()))
def test_cli_output_matches_golden(tmp_path, monkeypatch, case):
    monkeypatch.chdir(tmp_path)
    for name, text in golden_inputs().items():
        Path(name).write_text(text)
    assert golden_run(golden_cases()[case]) == GOLDEN[case]


def test_verify_cube_pass(capsys, order6_file):
    code, out, _ = run(capsys, "verify", "cube", order6_file)
    assert code == 0
    assert "projection A: (3,5,4,2,6,1) costas" in out
    assert "costas cube: yes" in out


def test_verify_array_failure_reports_vector(capsys, tmp_path):
    path = tmp_path / "arrays.txt"
    path.write_text("2 1\n1 2 3 4\n")
    code, out, _ = run(capsys, "verify", "array", str(path))
    assert code == 1
    assert "FAIL repeated vector (1, 1)" in out


def test_verify_cube_structural_error(capsys, tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("1 1 1\n2 1 2\n")
    code, _, err = run(capsys, "verify", "cube", str(path))
    assert code == 2
    assert "j coordinates" in err


@pytest.mark.parametrize("doc", [
    '{"order": 1, "triples": [[true, true, 1]]}',
    '{"order": true, "triples": [[1, 1, 1]]}',
])
def test_verify_rejects_json_booleans(capsys, tmp_path, doc):
    path = tmp_path / "cube.json"
    path.write_text(doc)
    code, out, err = run(capsys, "verify", "cube", str(path), "--format", "machine")
    assert code == 2
    assert out == ""
    assert err.startswith("error: bad ")


def test_verify_missing_file(capsys):
    code, _, err = run(capsys, "verify", "cube", "/nonexistent/file")
    assert code == 2


def test_construct_w2(capsys):
    code, out, _ = run(capsys, "construct", "w2", "--field", "13", "--phi", "11")
    assert code == 0
    assert "10 3 4 2 6 11 1 8 7 9 5" in out
    assert "costas: yes" in out


# construct runs of the array families, in both formats, and a refused
# G3 parameter: (argv, exit code, text stdout, machine stdout, stderr).
# Taken from the CLI while the array constructors still returned a
# Permutation.  The w1 run is also one of cli_golden.json's cases.
CONSTRUCT_ARRAY_RUNS = {
    "g2": (["construct", "g2", "--field", "13", "--phi", "2", "--rho", "6"], 0,
           "# g2 over GF(13) phi=2 rho=6\n# costas: yes\n3 2 5 9 6 1 11 7 8 10 4\n",
           '{"costas": true, "family": "g2", "field": "13", "order": 11, "parameters": {"phi": "2", "rho": "6"}, '
           '"values": [3, 2, 5, 9, 6, 1, 11, 7, 8, 10, 4]}\n', ""),
    "w2": (["construct", "w2", "--field", "13", "--phi", "2"], 0,
           "# w2 over GF(13) phi=2\n# costas: yes\n1 3 7 2 5 11 10 8 4 9 6\n",
           '{"costas": true, "family": "w2", "field": "13", "order": 11, "parameters": {"phi": "2"}, '
           '"values": [1, 3, 7, 2, 5, 11, 10, 8, 4, 9, 6]}\n', ""),
    "g3": (["construct", "g3", "--field", "2^4:1,0,0,1,1", "--phi", "x+x^2"], 0,
           "# g3 over GF(16) phi=x+x^2\n# costas: yes\n1 10 3 9 6 5 7 12 4 2 13 8 11\n",
           '{"costas": true, "family": "g3", "field": "2^4:1,0,0,1,1", "order": 13, "parameters": {"phi": "x+x^2"}, '
           '"values": [1, 10, 3, 9, 6, 5, 7, 12, 4, 2, 13, 8, 11]}\n', ""),
    "w1": (["construct", "w1", "--field", "13", "--phi", "2", "--c", "3"], 0,
           "# w1 over GF(13) phi=2 c=3\n# costas: yes\n3 6 12 11 9 5 10 7 1 2 4 8\n",
           '{"costas": true, "family": "w1", "field": "13", "order": 12, "parameters": {"c": "3", "phi": "2"}, '
           '"values": [3, 6, 12, 11, 9, 5, 10, 7, 1, 2, 4, 8]}\n', ""),
    "g3-refused": (["construct", "g3", "--field", "2^4:1,0,0,1,1", "--phi", "x"], 2, "", "",
                   "error: 1-phi=1+x is not primitive in GF(16)\n"),
}


@pytest.mark.parametrize("name", sorted(CONSTRUCT_ARRAY_RUNS))
def test_construct_array_runs_keep_their_bytes(capsys, name):
    argv, code, text, machine, err = CONSTRUCT_ARRAY_RUNS[name]
    assert run(capsys, *argv, "--format", "text") == (code, text, err)
    assert run(capsys, *argv, "--format", "machine") == (code, machine, err)


def test_construct_cube_g2x3_machine(capsys):
    code, out, _ = run(
        capsys, "construct", "cube-g2x3", "--field", "2^4:1,0,0,1,1",
        "--phi", "x", "--rho", "1+x^2+x^3", "--psi", "x+x^2+x^3",
        "--format", "machine",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["costas_cube"] is True
    assert doc["triples"] == [list(t) for t in cube_from_jk(GF16_J, GF16_K).triples()]
    assert doc["projections"]["A"] == list(GF16_J)


def test_construct_cube_text_output_reparses(capsys):
    code, out, _ = run(
        capsys, "construct", "cube-w2w2g2", "--field", "13", "--phi", "11", "--psi", "6"
    )
    assert code == 0
    cube = parse_cube_file(out)
    assert cube.order == 11


def test_construct_inadmissible_parameters(capsys):
    code, _, err = run(capsys, "construct", "cube-g3-i", "--field", "2^4:1,0,0,1,1", "--phi", "x")
    assert code == 2
    assert "not primitive" in err


def test_construct_requires_elements(capsys):
    code, _, err = run(capsys, "construct", "g2", "--field", "13", "--phi", "2")
    assert code == 2
    assert "--rho" in err
    code, _, err = run(capsys, "construct", "g2", "--field", "13", "--phi", "2", "--rho", "6",
                       "--psi", "3", "--c", "5")
    assert (code, err) == (2, "error: family g2 does not take --psi --c\n")


def test_construct_prime_family_on_extension_field(capsys):
    code, _, err = run(capsys, "construct", "w2", "--field", "2^4:1,0,0,1,1", "--phi", "x")
    assert code == 2
    assert "prime field" in err


def test_construct_refuses_a_field_above_the_table_guard(capsys):
    code, _, err = run(capsys, "construct", "g2", "--field", "2147483647", "--phi", "7", "--rho", "7")
    assert code == 2
    assert "guard" in err
    assert "Traceback" not in err


def test_enumerate_order6(capsys):
    code, out, _ = run(capsys, "enumerate", "--order", "6")
    assert code == 0
    assert "cube classes 47" in out


def test_enumerate_respects_limit(capsys):
    code, _, err = run(capsys, "enumerate", "--order", "14")
    assert code == 2
    assert "database" in err


def test_enumerate_with_arrays_file(capsys, tmp_path):
    path = tmp_path / "order5.txt"
    path.write_text(emit_array_file(p.values for p in costas_arrays(5)))
    code, out, _ = run(capsys, "enumerate", "--order", "5", "--arrays-file", str(path),
                       "--format", "machine")
    assert code == 0
    doc = json.loads(out)
    assert doc["cube_classes"] == 13
    assert doc["projection_array_classes"] == 6


def test_enumerate_rejects_incomplete_arrays_file(capsys, tmp_path):
    path = tmp_path / "order7.txt"
    path.write_text(emit_array_file(p.values for p in order7_without_one_class()))
    code, out, err = run(capsys, "enumerate", "--order", "7", "--arrays-file", str(path))
    assert code == 2
    assert out == ""
    assert "there are 200" in err


def test_enumerate_refuses_an_order_with_no_published_total(capsys, tmp_path):
    """The 8 planar images of w1(31, 3) are a closed list of order 30,
    which has no published total, so nothing shows it complete: enumerate
    exits 2 (it printed a row of 0 cube classes and 1 array class), while
    import still normalizes the file."""
    rows = planar_images(np.array([w1(31, 3)], dtype=np.uint8)).reshape(-1, 30)
    assert len({tuple(row) for row in rows.tolist()}) == 8
    path = tmp_path / "order30.txt"
    path.write_text(emit_array_file(rows.tolist()))
    assert run(capsys, "enumerate", "--order", "30", "--arrays-file", str(path)) == (
        2, "", "error: no published total of Costas arrays of order 30; "
               "an array list of that order cannot be shown complete\n")
    code, out, _ = run(capsys, "import", str(path), "--expect-order", "30")
    assert code == 0
    assert out.startswith("order 30: 8 arrays, 1 classes; normalized copy: ")
    assert parse_array_file((tmp_path / "order30.txt.normalized").read_text()).tolist() == sorted(rows.tolist())


def test_enumerate_emit_representatives(capsys):
    code, out, _ = run(capsys, "enumerate", "--order", "4", "--emit-representatives",
                       "--format", "machine")
    doc = json.loads(out)
    assert len(doc["representatives"]) == 2


def test_enumerate_machine_representatives_never_format_a_cube(capsys, monkeypatch):
    """Machine output reads no text line, so no cube is formatted; the
    order-11 representatives keep their pinned bytes."""
    def refuse(_):
        raise AssertionError("CostasCube formatted as text for machine output")

    monkeypatch.setattr(CostasCube, "__str__", refuse)
    code, out, _ = run(capsys, "enumerate", "--order", "11", "--arrays-file", str(ORDER11_DATABASE),
                       "--format", "machine", "--emit-representatives")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "b6e485f964572f8a57869ebe9ed6eab2bd4b558bbcf25c3f2d2ca8db561c452a")


def test_tables_1_text(capsys):
    code, out, _ = run(capsys, "tables", "--table", "1", "--max-order", "5")
    assert code == 0
    assert out.splitlines()[-1].split() == ["5", "13", "6", "6", "13", "6", "6"]


def test_tables_2_machine_byte_stable(capsys):
    code1, out1, _ = run(capsys, "tables", "--table", "2", "--max-order", "9",
                         "--format", "machine")
    code2, out2, _ = run(capsys, "tables", "--table", "2", "--max-order", "9",
                         "--format", "machine")
    assert code1 == code2 == 0
    assert out1 == out2
    rows = {r["order"]: r for r in json.loads(out1)}
    assert rows[6]["g2x3"] == 4
    assert rows[5]["g3"] == 2
    assert rows[8]["g2x3"] == rows[8]["w2w2g2"] == rows[8]["g3"] == 0


def test_sd_set_small_cube(capsys, tmp_path):
    path = tmp_path / "sd.txt"
    path.write_text(emit_cube_file(CostasCube.from_triples(SMALL_SD_TRIPLES)))
    code, out, _ = run(capsys, "sd-set", str(path))
    assert code == 0
    assert "|S(D)| = 4" in out
    assert "(2,4,5,1,6,3)" in out


def test_sd_set_rejects_non_costas(capsys, tmp_path):
    path = tmp_path / "diag.txt"
    path.write_text("1 1 1\n2 2 2\n3 3 3\n4 4 4\n")
    code, _, err = run(capsys, "sd-set", str(path))
    assert code == 1
    assert "not a Costas cube" in err


def test_sd_set_degenerate_order1(capsys, tmp_path):
    path = tmp_path / "one.txt"
    path.write_text("1 1 1\n")
    code, out, _ = run(capsys, "sd-set", str(path))
    assert code == 0
    assert "|S(D)| = 1 (degenerate order <= 2)" in out


def test_classify_cube(capsys, tmp_path):
    path = tmp_path / "w.txt"
    path.write_text(emit_cube_file(cube_from_jk((7, 4, 2, 3, 11, 5, 9, 8, 10, 1, 6),
                                                (6, 11, 2, 4, 3, 7, 1, 9, 10, 8, 5))))
    code, out, _ = run(capsys, "classify", "cube", str(path))
    assert code == 0
    lines = out.splitlines()
    assert any(line.startswith("projection A") and "W2" in line for line in lines)
    assert any(line.startswith("projection C") and "G2" in line for line in lines)


def test_classify_array_machine(capsys, tmp_path):
    path = tmp_path / "a.txt"
    path.write_text(" ".join(map(str, P13_A)) + "\n")
    code, out, _ = run(capsys, "classify", "array", str(path), "--format", "machine")
    assert code == 0
    doc = json.loads(out)
    assert "W2" in doc[0]["labels"]


def test_classify_array_builds_one_catalog_per_order(capsys, tmp_path, monkeypatch):
    calls = []

    def counting_catalog(order):
        calls.append(order)
        return catalog(order)

    monkeypatch.setattr(cli, "catalog", counting_catalog)
    path = tmp_path / "a.txt"
    path.write_text(emit_array_file([p.values for p in costas_arrays(5)[:3]] + [P13_A] + [p.values for p in costas_arrays(5)[3:6]]))
    code, out, _ = run(capsys, "classify", "array", str(path))
    assert code == 0
    assert len(out.splitlines()) == 7
    assert calls == [5, 11]


def test_classify_array_canonicalises_once_per_order(capsys, tmp_path, monkeypatch):
    """classify array forms the least images of all the arrays of one
    order in one least_image call, in ascending order."""
    orders = []

    def counting_least_image(images):
        orders.append(images.shape[-1])
        return least_image(images)

    monkeypatch.setattr(cli, "least_image", counting_least_image)
    path = tmp_path / "a.txt"
    path.write_text(emit_array_file([p.values for p in costas_arrays(5)[:3]] + [P13_A] + [p.values for p in costas_arrays(5)[3:6]]))
    code, out, _ = run(capsys, "classify", "array", str(path))
    assert code == 0
    assert len(out.splitlines()) == 7
    assert orders == [5, 11]


@st.composite
def mixed_order_rows(draw):
    """Value sequences of orders 1-8 in a drawn order, each a Costas array
    or a drawn permutation, which may or may not be one."""
    rows = []
    for _ in range(draw(st.integers(1, 12))):
        n = draw(st.integers(1, 8))
        if draw(st.booleans()):
            rows.append(draw(st.sampled_from(costas_arrays(n))).values)
        else:
            rows.append(tuple(draw(st.permutations(range(1, n + 1)))))
    return rows


_catalog = functools.cache(catalog)


@settings(max_examples=60, deadline=None)
@given(mixed_order_rows())
def test_verify_and_classify_array_over_mixed_orders_match_per_line_oracle(rows):
    """verify array and classify array judge the arrays of each order in
    one pass, and report them in file order, line by line as the scan
    oracle, the catalog and the least-image oracle do."""
    found = [costas_violation_oracle(v) for v in rows]
    verify = [{"index": i, "values": list(v), "costas": f == (0, 0),
               "repeated_vector": None if f == (0, 0) else list(f)}
              for i, (v, f) in enumerate(zip(rows, found), start=1)]
    classify = [{"index": i, "values": list(v), "costas": f == (0, 0),
                 "labels": sorted(_catalog(len(v)).get(least_image_oracle(Permutation(v)), ()))}
                for i, (v, f) in enumerate(zip(rows, found), start=1)]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "arrays.txt"
        path.write_text(emit_array_file(rows))
        got = {cmd: golden_run([cmd, "array", str(path), "--format", "machine"]) for cmd in ("verify", "classify")}
    assert (got["verify"]["code"], json.loads(got["verify"]["stdout"])) == (
        0 if all(f == (0, 0) for f in found) else 1, verify)
    assert (got["classify"]["code"], json.loads(got["classify"]["stdout"])) == (0, classify)


def test_main_builds_one_parser(capsys, order6_file):
    """Parsing leaves the parser unchanged, so main builds it once per
    process rather than once per call."""
    cli._build_parser.cache_clear()
    assert run(capsys)[0] == 2
    assert run(capsys, "verify", "cube", order6_file)[0] == 0
    assert cli._build_parser.cache_info().misses == 1


def test_project_output_reparses_as_array_file(capsys, order6_file):
    code, out, _ = run(capsys, "project", order6_file)
    assert code == 0
    values = parse_array_file(out)
    assert [tuple(v) for v in values.tolist()] == [
        (3, 5, 4, 2, 6, 1), (4, 3, 6, 1, 5, 2), (3, 1, 5, 6, 2, 4)
    ]


def _write_shuffled(path, arrays, seed):
    """Write arrays to an array file in a shuffled order, with one line
    written twice."""
    listed = list(arrays)
    random.Random(seed).shuffle(listed)
    listed.insert(len(listed) // 2, listed[0])
    path.write_text(emit_array_file(p.values for p in listed))


def test_import_full_database(capsys, tmp_path):
    """Orders 1-9, each written shuffled with one line repeated: the
    repeat is dropped, the class count is the join's, and the normalized
    copy lists the distinct arrays sorted."""
    for n in range(1, 10):
        arrays = costas_arrays(n)
        path = tmp_path / f"db{n}.txt"
        _write_shuffled(path, arrays, n)
        code, out, _ = run(capsys, "import", str(path), "--expect-order", str(n))
        classes = enumeration.class_report(n, enumeration.costas_values(n)).total_array_classes
        normalized = tmp_path / f"db{n}.txt.normalized"
        assert (code, out) == (
            0, f"order {n}: {len(arrays)} arrays, {classes} classes; normalized copy: {normalized}\n")
        assert normalized.read_text() == emit_array_file(
            [p.values for p in arrays], comments=[f"order {n}", f"arrays {len(arrays)}", f"classes {classes}"])


def test_import_rejects_non_costas_line(capsys, tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("2 4 3 1\n1 2 3 4\n")
    code, _, err = run(capsys, "import", str(path))
    assert code == 1
    assert "line 2" in err and "not a Costas array" in err
    # Only the first bad array is named, by its file line.
    path.write_text("# db\n2 4 3 1\n\n1 3 4 2\n1 2 3 4\n4 3 2 1\n")
    code, _, err = run(capsys, "import", str(path))
    assert code == 1
    assert err == "error: line 5: (1,2,3,4) is not a Costas array (repeated vector (1, 1))\n"


def test_import_order_mismatch(capsys, tmp_path):
    path = tmp_path / "five.txt"
    path.write_text(emit_array_file(p.values for p in costas_arrays(4)))
    code, _, err = run(capsys, "import", str(path), "--expect-order", "5")
    assert code == 1
    assert "expected 5" in err


def test_import_expands_representatives(capsys, tmp_path):
    """The class representatives of orders 1-9, written shuffled with one
    line repeated, expand to the normalized file of the full list, byte
    for byte.  An open list that holds two members of one class counts
    that class once."""
    for n in range(1, 10):
        arrays = costas_arrays(n)
        classes = enumeration.class_report(n, enumeration.costas_values(n)).total_array_classes
        full, reps, opened, expanded = (tmp_path / f"{name}{n}.txt"
                                        for name in ("full", "reps", "open", "expanded"))
        _write_shuffled(full, arrays, n)
        assert run(capsys, "import", str(full))[0] == 0
        representatives = [p for p in arrays if least_image_oracle(p) == p.values]
        # Only at order 1 are the representatives the whole list.
        closed = n == 1
        assert (len(representatives) == len(arrays)) == closed
        _write_shuffled(reps, representatives, n)
        code, out, _ = run(capsys, "import", str(reps))
        assert code == 0
        assert out.startswith("warning: file is not closed") != closed
        assert f"{len(representatives)} arrays, {classes} classes" in out
        code, out, _ = run(capsys, "import", str(reps), "--expand", "--output", str(expanded))
        assert code == 0
        note = f"note: expanded to full square-symmetry orbits ({len(arrays)} arrays)\n"
        assert out.startswith(note) != closed
        assert f"{len(arrays)} arrays, {classes} classes" in out
        assert expanded.read_bytes() == (tmp_path / f"full{n}.txt.normalized").read_bytes()
        # Below order 3, a class with a second member listed is the whole list.
        if n >= 3:
            first = representatives[0]
            listed = representatives + [
                next(p for p in arrays if p != first and least_image_oracle(p) == first.values)]
            _write_shuffled(opened, listed, n)
            code, out, _ = run(capsys, "import", str(opened))
            assert code == 0
            assert out.startswith("warning: file is not closed")
            oracle = len({least_image_oracle(p) for p in listed})
            assert f"{len(listed)} arrays, {oracle} classes" in out


def test_import_rejects_incomplete_closed_database(capsys, tmp_path):
    arrays = order7_without_one_class()
    reps = [p for p in arrays if least_image_oracle(p) == p.values]
    for name, listed, extra in (("full.txt", arrays, []), ("reps.txt", reps, ["--expand"])):
        path = tmp_path / name
        path.write_text(emit_array_file(p.values for p in listed))
        code, _, err = run(capsys, "import", str(path), *extra)
        assert code == 1
        assert f"holds {len(arrays)} Costas arrays of order 7, but there are 200" in err
        assert not (tmp_path / (name + ".normalized")).exists()


# The first failing check names the fault: a bad line, then an empty list,
# duplicates, a non-Costas array before the first of the wrong order, the
# wrong order, closure under the square symmetries, the published total.
_ARRAYS_FILE_ERRORS = {
    "1 2 3\n1 3\n": ["line 2: (1, 3) is not a bijection on 1..2"] * 2,
    "2 1 3\n1 2\n": ["array (2,1,3) has order 3, expected 2", "array (1,2) has order 2, expected 3"],
    "1 2\n2 1\n99999999999999999999 1\n":
        ["line 3: (99999999999999999999, 1) is not a bijection on 1..2"] * 2,
    "1 2\n1 two\n": ["line 2: invalid literal for int() with base 10: 'two'"] * 2,
    "1 2\n2 1\n1 2\n": ["array list contains duplicates"] * 2,
    "1 2 3\n": ["array (1,2,3) has order 3, expected 2", "array (1,2,3) is not a Costas array"],
    "2 1\n": ["array list is not closed under the square symmetries (image of (2,1) missing); "
              "it cannot be complete", "array (2,1) has order 2, expected 3"],
    "# only\n": ["no permutations found"] * 2,
}


@pytest.mark.parametrize("text, order, message", [
    pytest.param(text, order, messages[order - 2], id=f"{text!r}-order{order}")
    for text, messages in _ARRAYS_FILE_ERRORS.items() for order in (2, 3)
])
def test_enumerate_arrays_file_error_contract(capsys, tmp_path, text, order, message):
    path = tmp_path / "db.txt"
    path.write_text(text)
    assert run(capsys, "enumerate", "--order", str(order), "--arrays-file", str(path)) == (
        2, "", f"error: {message}\n")


@pytest.mark.parametrize("order", ["0", "-3"])
def test_enumerate_refuses_an_order_below_one_on_both_routes(capsys, tmp_path, order):
    """An order below 1 gets one message, with or without an array file:
    it is refused before the file's rows are checked against it."""
    path = tmp_path / "db.txt"
    path.write_text("1 2\n2 1\n")
    for extra in ([], ["--arrays-file", str(path)]):
        assert run(capsys, "enumerate", "--order", order, *extra) == (
            2, "", "error: order must be >= 1\n")


# Array files that import refuses, each naming its fault once: (exit
# code, stderr).
_IMPORT_REFUSALS = {
    "2 4 3 1\n1 1\n": (2, "error: line 2: (1, 1) is not a bijection on 1..2\n"),
    "1.0 2\n2 1\n": (2, "error: line 1: invalid literal for int() with base 10: '1.0'\n"),
    "# only a comment\n\n": (2, "error: no permutations found\n"),
    "# db\n2 4 3 1\n\n1 3 4 2\n1 2 3 4\n4 3 2 1\n":
        (1, "error: line 5: (1,2,3,4) is not a Costas array (repeated vector (1, 1))\n"),
}


def test_join_route_builds_no_permutation_per_line(capsys, tmp_path, monkeypatch):
    """No command builds a Permutation: the order-7 array file reaches the
    pair-join as one value matrix, and every golden run, every refusal of
    import and every construct run of an array family keeps its output
    with Permutation's check made to fail the test."""
    monkeypatch.chdir(tmp_path)
    inputs = {**golden_inputs(), "db7.txt": emit_array_file(p.values for p in costas_arrays(7))}
    inputs.update((f"refused{i}.txt", text) for i, text in enumerate(_IMPORT_REFUSALS))
    for name, text in inputs.items():
        Path(name).write_text(text)

    def refuse(self):
        pytest.fail(f"Permutation {self.values} built")

    monkeypatch.setattr(Permutation, "__post_init__", refuse)
    code, out, _ = run(capsys, "enumerate", "--order", "7", "--arrays-file", "db7.txt")
    assert (code, out) == (0, "order 7: cube classes 30, projection array classes 26, total array classes 30\n")
    for case, argv in golden_cases().items():
        assert golden_run(argv) == GOLDEN[case], case
    for i, (code, err) in enumerate(_IMPORT_REFUSALS.values()):
        assert run(capsys, "import", f"refused{i}.txt") == (code, "", err)
    for argv, code, text, machine, err in CONSTRUCT_ARRAY_RUNS.values():
        assert run(capsys, *argv) == (code, text, err)


def test_import_names_bad_line_once(capsys, tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("2 4 3 1\n1 1\n")
    code, _, err = run(capsys, "import", str(path))
    assert code == 2
    assert err == "error: line 2: (1, 1) is not a bijection on 1..2\n"


@pytest.mark.parametrize("argv, expected", [
    pytest.param(["verify", "array", "{dir}"], 2, id="verify-directory"),
    pytest.param(["sd-set", "{dir}"], 2, id="sd-set-directory"),
    pytest.param(["project", "{dir}"], 2, id="project-directory"),
    pytest.param(["import", "{dir}"], 2, id="import-directory"),
    pytest.param(["enumerate", "--order", "5", "--arrays-file", "{dir}"], 2,
                 id="enumerate-directory"),
    pytest.param(["import", "{db5}", "--output", "{dir}"], 2, id="import-output-directory"),
    pytest.param(["verify", "array", "{empty}"], 2, id="verify-empty-file"),
    pytest.param(["construct", "w2", "--field", "2^4"], 2, id="construct-bad-field-spec"),
    pytest.param(["construct", "w1", "--field", "13", "--phi", "2", "--rho", "5"], 2,
                 id="construct-w1-given-rho"),
    pytest.param(["construct", "g2", "--field", "13", "--phi", "2", "--rho", "6", "--c", "5"], 2,
                 id="construct-g2-given-c"),
    pytest.param(["construct", "g2", "--field", "1000000000000000003", "--phi", "2", "--rho", "2"], 2,
                 id="construct-field-above-the-guard"),
    pytest.param(["import", "{mixed}"], 1, id="import-mixed-orders"),
    pytest.param(["tables", "--table", "1", "--max-order", "1"], 2, id="tables-1-max-order-1"),
    pytest.param(["tables", "--table", "2", "--max-order", "0"], 2, id="tables-2-max-order-0"),
])
def test_exit_code_contract(capsys, tmp_path, argv, expected):
    paths = {"dir": tmp_path / "a_directory", "empty": tmp_path / "empty.txt",
             "db5": tmp_path / "db5.txt", "mixed": tmp_path / "mixed.txt"}
    paths["dir"].mkdir()
    paths["empty"].write_text("")
    paths["db5"].write_text(emit_array_file(p.values for p in costas_arrays(5)))
    paths["mixed"].write_text("1 2\n1 3 2\n")
    code, out, err = run(capsys, *(arg.format(**paths) for arg in argv))
    assert code == expected
    assert code == 1 or out == ""
    assert err.startswith("error: ")
    assert "Traceback" not in err


def test_no_command_prints_help(capsys):
    code, out, _ = run(capsys)
    assert code == 2
    assert "usage" in out.lower()


def test_entry_point_exists():
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-m", "costas_cubes.cli", "verify", "array", "/nonexistent"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 2


@pytest.mark.parametrize("order", [0, 14])
def test_survey_script_exits_2_on_an_order_it_cannot_survey(order):
    """The S(D) survey refuses an order below 1 or above the enumeration
    limit as the CLI refuses bad input: one error line, exit 2."""
    import os
    import subprocess
    import sys

    message = {
        0: "order must be >= 1",
        14: str(enumeration.EnumerationLimitError(14, enumeration.DEFAULT_ORDER_LIMIT)),
    }[order]
    root = Path(__file__).parents[1]
    path = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(root / "scripts" / "survey_sd_sizes.py"), "--order", str(order)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", f"error: {message}\n")


def test_tables_1_exits_1_on_a_differing_row(capsys, monkeypatch):
    code, out, _ = run(capsys, "tables", "--table", "1", "--max-order", "5")
    assert code == 0
    assert "differs" not in out
    code, _, err = run(capsys, "tables", "--table", "1", "--max-order", "1")
    assert code == 2
    assert "max order 1 is below 2" in err
    for published, column in (((12, 6, 6), "cubes"), ((13, 7, 6), "projection_arrays")):
        monkeypatch.setitem(reference.TABLE1, 5, published)
        code, out, _ = run(capsys, "tables", "--table", "1", "--max-order", "5")
        assert code == 1
        flagged = [line for line in out.splitlines() if "differs" in line]
        assert len(flagged) == 1
        assert flagged[0].split()[0] == "5"
        assert flagged[0].endswith("differs from published " + column)
        assert run(capsys, "tables", "--table", "1", "--max-order", "5", "--format", "machine")[0] == 1


def test_tables_2_exits_1_on_a_differing_row(capsys, monkeypatch):
    code, out, _ = run(capsys, "tables", "--table", "2", "--max-order", "9")
    assert code == 0
    assert "differs" not in out
    code, _, err = run(capsys, "tables", "--table", "2", "--max-order", "1")
    assert code == 2
    assert "max order 1 is below 2" in err
    # one differing column each; order 8 constructs nothing but must still print
    for order, published in ((5, (1, 1, 1)), (6, (4, 1, 0)), (8, (1, 0, 0))):
        monkeypatch.setitem(reference.TABLE2, order, published)
        code, out, _ = run(capsys, "tables", "--table", "2", "--max-order", "9")
        assert code == 1
        flagged = [line for line in out.splitlines() if "differs" in line]
        assert [line.split()[0] for line in flagged] == [str(order)]
        assert run(capsys, "tables", "--table", "2", "--max-order", "9", "--format", "machine")[0] == 1
        monkeypatch.undo()


def test_tables_1_refuses_order_14_before_any_search(capsys, monkeypatch):
    searched = []
    monkeypatch.setattr(enumeration, "costas_values", lambda *a, **k: searched.append(a))
    code, out, err = run(capsys, "tables", "--table", "1", "--max-order", "14")
    assert (code, out) == (2, "")
    assert err.startswith("error: order 14 exceeds the in-process enumeration limit 13; ")
    assert searched == []


def test_tables_2_refuses_an_order_above_the_sweep_guard_before_any_field(capsys, monkeypatch):
    made = []
    monkeypatch.setattr(construct, "field_new", lambda *a, **k: made.append(a))
    code, out, err = run(capsys, "tables", "--table", "2", "--max-order", "1000000")
    assert (code, out) == (2, "")
    assert err == "error: max_order 1000000 exceeds the guard 29\n"
    assert made == []


def test_classify_labels_w1_over_a_field_with_no_configured_modulus(capsys, tmp_path):
    """Order 46 reaches G3 over GF(49), which has no entry in DEFAULT_MODULI."""
    path = tmp_path / "w1.txt"
    path.write_text(emit_array_file([w1(47, 5)]))
    code, out, err = run(capsys, "classify", "array", str(path))
    assert (code, err) == (0, "")
    assert out.endswith(" W1\n")
