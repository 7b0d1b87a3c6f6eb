import argparse
import hashlib
import json
import random
import time

import pytest

from ktoric import (
    BottMatrix,
    CartanWord,
    bott_charmap,
    cli,
    cube,
    jsonio,
    product,
    product_charmap,
    simplex,
    simplex_charmap,
)
from ktoric.cli import main
from ktoric.polyring import DEFAULT_BUDGET, DEGREE_LIMIT, RANK_CAP

from ladder import random_tower


@pytest.fixture(autouse=True)
def dumps_is_json_dumps(monkeypatch):
    """Every report a test here renders as JSON, checked as it is written:
    jsonio.dumps must give json.dumps(report, indent=2) + "\n" byte for
    byte."""
    rendered = jsonio.dumps

    def checked(report):
        out = rendered(report)
        assert out == json.dumps(report, indent=2) + "\n"
        return out

    monkeypatch.setattr(jsonio, "dumps", checked)


def cube_files(json_file, a=1):
    p = cube(2)
    pd = {
        "dim": 2,
        "facets": 4,
        "vertices": [sorted(v) for v in p.vertices],
        "coords": [[str(x) for x in pt] for pt in p.coords],
    }
    ld = {"lambda": [[1, 0], [-1, a], [0, 1], [0, -1]], "base_vertex": 0}
    return json_file(pd, "cube.json"), json_file(ld, "cube_lam.json")


# --- exit codes --------------------------------------------------------------


def test_validate_pass(simplex_files, capsys):
    pf, lf = simplex_files(2)
    assert main(["validate", pf, lf]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["ok"] is True
    assert report["polytope"]["connected"]["ok"] is True


def test_validate_failure_is_exit_one(json_file, simplex_files, capsys):
    pf, _ = simplex_files(2)
    lf = json_file({"lambda": [[2, 0], [0, 1], [-1, -1]], "base_vertex": 0})
    assert main(["validate", pf, lf]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["ok"] is False
    assert report["lambda"]["primitive_vectors"]["ok"] is False


def test_malformed_json_is_exit_two(json_file, simplex_files, capsys):
    pf, lf = simplex_files(2)
    broken = json_file({"x": 1}, "broken.json")
    with open(broken, "w") as fh:
        fh.write("{not json")
    assert main(["validate", broken, lf]) == 2
    assert "input error" in capsys.readouterr().err


def test_deeply_nested_json_is_exit_two(tmp_path, capsys):
    # json.load recurses once per bracket: past the recursion limit it raises
    # RecursionError, which is unparsable input like any other
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100000 + "]" * 100000)
    assert main(["bott", str(deep)]) == 2
    err = capsys.readouterr().err
    assert err == f"input error: {deep}: JSON nested too deeply\n"


def test_missing_file_is_exit_two(simplex_files, capsys):
    pf, lf = simplex_files(2)
    assert main(["validate", "/nonexistent/p.json", lf]) == 2
    assert "input error" in capsys.readouterr().err


def test_missing_key_is_exit_two(json_file, simplex_files, capsys):
    pf, _ = simplex_files(2)
    lf = json_file({"vectors": [[1, 0]]})
    assert main(["kring", pf, lf]) == 2
    assert "input error" in capsys.readouterr().err


@pytest.mark.parametrize("error", [KeyError, TypeError])
def test_internal_key_error_is_not_an_input_error(simplex_files, monkeypatch,
                                                  error):
    # the readers name a missing key in a ValueError and type-check every
    # JSON value, so a KeyError or a TypeError can only come from a bug,
    # which must surface rather than read as exit 2
    def broken(*args, **kwargs):
        raise error("internal")

    monkeypatch.setattr(cli, "compute_basis", broken)
    pf, lf = simplex_files(2)
    with pytest.raises(error, match="internal"):
        main(["kring", pf, lf])


def test_three_vertices_on_a_facet_are_exit_one(json_file, capsys):
    # the star: three vertices on facet 0, which no polygon has; kring must
    # stop at validation, not reach ascending_faces
    pf = json_file({"dim": 2, "facets": 4, "vertices": [[0, 1], [0, 2], [0, 3]],
                    "coords": [[0, 0], [1, 0], [0, 1]]})
    lf = json_file({"lambda": [[1, 0], [0, 1], [1, 1], [1, -1]],
                    "base_vertex": 0})
    assert main(["validate", pf, lf]) == 1
    report = json.loads(capsys.readouterr().out)
    failed = {name for name, c in report["polytope"].items() if not c["ok"]}
    assert failed == {"edge_count", "connected"}
    assert main(["kring", pf, lf]) == 1
    assert capsys.readouterr().err.startswith("error: polytope failed validation")


def test_vertex_off_dim_facets_is_reported(json_file, capsys):
    # vertex 0 lies on three facets of a 2-polytope; validate must report
    # every check, its determinant among the failures, not stop on a
    # non-square matrix
    pf = json_file({"dim": 2, "facets": 4,
                    "vertices": [[0, 1, 2], [1, 2], [2, 3], [3, 0]],
                    "coords": [[0, 0], [1, 0], [1, 1], [0, 1]]})
    lf = json_file({"lambda": [[1, 0], [0, 1], [-1, 0], [0, -1]],
                    "base_vertex": 1})
    assert main(["validate", pf, lf]) == 1
    out, err = capsys.readouterr()
    assert err == ""
    report = json.loads(out)
    failed = {name for part in ("polytope", "lambda")
              for name, c in report[part].items() if not c["ok"]}
    assert failed == {"vertex_simplicity", "edge_count", "connected",
                      "vertex_determinants"}
    assert main(["kring", pf, lf]) == 1
    assert capsys.readouterr().err.startswith("error: polytope failed validation")


SIMPLEX2 = {"dim": 2, "facets": 3, "vertices": [[1, 2], [0, 2], [0, 1]]}
SIMPLEX2_LAM = {"lambda": [[-1, -1], [1, 0], [0, 1]], "base_vertex": 0}


@pytest.mark.parametrize("args, message", [
    (["bott", [1, 2]], "expected a JSON object, got list"),
    (["bott", {"c": [[1, 2, 1]]}], "n: required key missing"),
    (["bott", {"n": 2, "c": [[1, 2]]}], "c: expected [i, j, value], got [1, 2]"),
    (["compare", {"n": 2, "c": [7]}], "c: expected [i, j, value], got 7"),
    (["kring", {"dim": 2, "facets": 3}, SIMPLEX2_LAM],
     "vertices: required key missing"),
    (["kring", SIMPLEX2, [[-1, -1], [1, 0], [0, 1]]],
     "expected a JSON object, got list"),
    (["kring", SIMPLEX2, SIMPLEX2_LAM, "--order-file", {"sequence": [0, 1, 2]}],
     "order: required key missing"),
    (["bott-samelson", {"type": "A", "rank": 2}], "word: required key missing"),
    (["bott-samelson", {"type": "A", "word": [1, 2]}], "rank: required key missing"),
    (["bott-samelson", {"type": "matrix", "word": [1, 2]}],
     "matrix: required key missing"),
    # a key no reader reads is refused, not dropped: a misspelled "c" would
    # leave the tower untwisted, and a named table would hide the matrix
    # given beside it
    (["bott", {"n": 2, "C": [[1, 2, 5]]}], "C: unknown key"),
    (["compare", {"n": 2, "c": [], "twists": [[1, 2, 1]]}], "twists: unknown key"),
    (["bott-samelson", {"type": "A", "rank": 2, "matrix": [[2, -3], [-1, 2]],
                        "word": [1, 2]}], "matrix: unknown key"),
    (["bott-samelson", {"type": "matrix", "matrix": [[2]], "word": [1],
                        "conventions": "col"}], "conventions: unknown key"),
    (["kring", {**SIMPLEX2, "coord": [[0, 0], [1, 0], [0, 1]]}, SIMPLEX2_LAM],
     "coord: unknown key"),
    (["kring", SIMPLEX2, {**SIMPLEX2_LAM, "base": 1}], "base: unknown key"),
    (["kring", SIMPLEX2, SIMPLEX2_LAM, "--order-file",
      {"order": [0, 1, 2], "functional": [1, 2]}], "functional: unknown key"),
    (["bott-samelson", {"type": None, "rank": 2, "word": [1]}],
     "type: expected a string, got None"),
    (["bott-samelson", {"type": ["matrix"], "rank": 2, "word": [1]}],
     "type: expected a string, got ['matrix']"),
])
def test_malformed_input_names_the_key(json_file, args, message, capsys):
    # the readers name the key; a bare KeyError would print only "'word'".
    # Every argument but a string is written to a JSON file first
    argv = [a if isinstance(a, str) else json_file(a) for a in args]
    assert main(argv) == 2
    assert f"input error: {message}\n" in capsys.readouterr().err


@pytest.mark.parametrize("args, key", [
    (["bott", {"n": 2, "c": 5}], "c"),
    (["bott", {"n": 2, "c": None}], "c"),
    (["bott-samelson", {"type": "A", "rank": 2, "word": 3}], "word"),
    (["bott-samelson", {"type": "matrix", "matrix": 4, "word": [1]}], "matrix"),
    (["kring", {**SIMPLEX2, "vertices": 5}, SIMPLEX2_LAM], "vertices"),
    (["kring", {**SIMPLEX2, "coords": 7}, SIMPLEX2_LAM], "coords"),
    (["kring", SIMPLEX2, {"lambda": 3}], "lambda"),
    (["kring", SIMPLEX2, SIMPLEX2_LAM, "--order-file", {"order": 2}], "order"),
])
def test_scalar_where_a_list_belongs_names_the_key(json_file, args, key, capsys):
    # iterating the scalar would print only "'int' object is not iterable"
    argv = [a if isinstance(a, str) else json_file(a) for a in args]
    assert main(argv) == 2
    assert f"input error: {key}: expected a list, got " in capsys.readouterr().err


def test_tie_is_exit_one(json_file, capsys):
    pf, lf = cube_files(json_file)
    assert main(["kring", pf, lf, "--functional", "1,1"]) == 1
    assert "error" in capsys.readouterr().err


def test_budget_is_exit_one(json_file, capsys):
    pf, lf = cube_files(json_file)
    assert main(["kring", pf, lf, "--budget", "1"]) == 1
    assert "budget" in capsys.readouterr().err


def test_budget_error_names_the_stage(tower_files, capsys):
    tf = tower_files(3, [(1, 2, 1), (1, 3, -1), (2, 3, 2)])
    assert main(["compare", tf, "--budget", "5"]) == 1
    err = capsys.readouterr().err
    assert "buchberger budget exhausted after 5 cancellation steps" in err


def test_involution_check_is_budgeted(tower_files, capsys):
    # the involution check reduces each relation's centred swap, v - 1 table
    # entries on a tower of twist v, so the twist-2000 tower passes in the
    # default budget; Buchberger needs about 2v steps, so at twist 4000 it is
    # the stage that stops, in seconds, not the involution check
    tf = tower_files(2, [(1, 2, 2000)])
    assert main(["bott", tf]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["involution_ok"] is True and report["rank"] == 4
    tf = tower_files(2, [(1, 2, 4000)])
    start = time.process_time()
    assert main(["bott", tf]) == 1
    assert time.process_time() - start < 20
    err = capsys.readouterr().err
    assert (f"buchberger budget exhausted after {DEFAULT_BUDGET} "
            "cancellation steps") in err


def test_twist_400_passes_the_default_budget(tower_files, capsys):
    # a twist between about 335 and 3500 once ran the swapped relations'
    # v^2 table entries out of the involution check's allowance: exit 1
    tf = tower_files(2, [(1, 2, 400)])
    assert main(["bott", tf]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["involution_ok"] is True and report["rank"] == 4


def test_tower_past_the_packing_limit_is_exit_one(tower_files, capsys):
    # bott's relation y2^2 - y2 - (y2 - 1) * y1_inv^40000 and the degree-40001
    # covector relation compare builds first each have a monomial whose
    # degree no packed field holds
    tf = tower_files(2, [(1, 2, 40000)])
    for command in ("bott", "compare"):
        assert main([command, tf]) == 1
        err = capsys.readouterr().err
        assert f"degree limit {DEGREE_LIMIT}" in err
        assert "Traceback" not in err


def reached(*args):
    raise AssertionError("a stage past the tower's height check was reached")


@pytest.mark.parametrize("command, doc, n", [
    ("bott", {"n": 2 ** 70}, 2 ** 70),
    ("compare", {"n": 2 ** 70}, 2 ** 70),
    ("compare", {"n": 17}, 17),
    ("bott-samelson", {"type": "A", "rank": 2, "word": [1, 2] * 20000}, 40000),
], ids=["bott-2^70", "compare-2^70", "compare-17", "bott-samelson-40000"])
def test_tower_past_the_rank_cap_is_exit_one(json_file, monkeypatch, capsys,
                                              command, doc, n):
    # rank 2^n passes RANK_CAP from height 17 on; the height is refused
    # before 2^n, the cube, the presentation or the pairings of a word are
    # formed. Each later stage fails the test at once should it be reached
    for name in ("bott_presentation", "bott_equivalence"):
        monkeypatch.setattr(cli, name, reached)
    monkeypatch.setattr(CartanWord, "pairing", reached)
    start = time.process_time()
    assert main([command, json_file(doc)]) == 1
    assert time.process_time() - start < 10
    assert capsys.readouterr().err == (
        f"error: a tower of height {n} has rank 2^{n}, more than {RANK_CAP}\n")


@pytest.mark.parametrize("rank, code", [(316, 0), (317, 1), (1000, 1)])
def test_cartan_rank_past_the_entry_cap_is_exit_one(json_file, capsys, rank, code):
    # the report echoes the whole matrix, so a named rank is refused once
    # its rank x rank matrix has more than RANK_CAP entries, before a row.
    # Ranks whose matrix would not fit in memory run in test_fuzz's child,
    # under an address-space limit
    start = time.process_time()
    assert main(["bott-samelson",
                 json_file({"type": "A", "rank": rank, "word": [1]})]) == code
    assert time.process_time() - start < 10
    out, err = capsys.readouterr()
    if code == 0:
        assert len(json.loads(out)["input"]["matrix"]) == 316
    else:
        assert err == (f"error: a Cartan matrix of rank {rank} has more "
                       f"than {RANK_CAP} entries\n")


def test_base_vertex_out_of_range_is_exit_two(json_file, capsys):
    tri = {**SIMPLEX2, "coords": [[0, 0], [1, 0], [0, 1]]}
    assert main(["kring", json_file(tri), json_file({**SIMPLEX2_LAM,
                                                      "base_vertex": 7})]) == 2
    assert capsys.readouterr().err == (
        "input error: base vertex index out of range\n")


@pytest.mark.parametrize("order", [[3, 0, 1, 2], [1, 0]])
@pytest.mark.parametrize("base", [None, 0])
def test_order_file_of_the_wrong_size_is_exit_two(json_file, order, base,
                                                  monkeypatch, capsys):
    # refused before the base vertex is taken from the order and before any
    # work is done
    def no_work(*args):
        raise AssertionError("presentation built")

    monkeypatch.setattr(cli, "build_presentation", no_work)
    tri = {**SIMPLEX2, "coords": [[0, 0], [1, 0], [0, 1]]}
    lam = {"lambda": SIMPLEX2_LAM["lambda"]}
    if base is not None:
        lam["base_vertex"] = base
    argv = ["kring", json_file(tri), json_file(lam),
            "--order-file", json_file({"order": order})]
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        "input error: vertex order size does not match the polytope\n")


@pytest.mark.parametrize("command, code, err", [
    ("validate", 2, "input error: one vector per facet required\n"),
    ("kring", 1, "error: polytope failed validation:\n"),
], ids=["validate", "kring"])
def test_thirty_million_facets_are_counted_not_listed(json_file, capsys,
                                                      command, code, err):
    # the unused facets are counted and the first MISSING_SHOWN of them
    # listed; a set of all 30000000 indices once took about 2 GB. Facet
    # counts past memory run in test_fuzz's child
    tri = {**SIMPLEX2, "facets": 30000000, "coords": [[0, 0], [1, 0], [0, 1]]}
    start = time.process_time()
    assert main([command, json_file(tri), json_file(SIMPLEX2_LAM)]) == code
    assert time.process_time() - start < 1
    assert capsys.readouterr().err.startswith(err)


def test_negative_budget_is_exit_two(tower_files, capsys):
    tf = tower_files(2, [(1, 2, 1)])
    with pytest.raises(SystemExit) as exc:
        main(["compare", tf, "--budget", "-5"])
    assert exc.value.code == 2
    assert "--budget" in capsys.readouterr().err


@pytest.mark.parametrize("lam", [
    [[-1.9, -1], [1, 0.4], [0, True]],
    [[-1, -1], [1, 0], [0, True]],
    [[-1, -1], [1, 0.0], [0, 1]],
])
def test_non_integer_vectors_are_exit_two(json_file, simplex_files, lam, capsys):
    pf, _ = simplex_files(2)
    lf = json_file({"lambda": lam})
    assert main(["validate", pf, lf]) == 2
    assert "lambda" in capsys.readouterr().err


@pytest.mark.parametrize("tower, field", [
    ({"n": 2.7, "c": [[1, 2, 1.5]]}, "n"),
    ({"n": 2, "c": [[1, 2, 1.5]]}, "c"),
    ({"n": True, "c": []}, "n"),
])
def test_non_integer_tower_is_exit_two(json_file, tower, field, capsys):
    tf = json_file(tower)
    assert main(["bott", tf]) == 2
    assert f"{field}: expected an integer" in capsys.readouterr().err


@pytest.mark.parametrize("change, field", [
    ({"dim": 2.0}, "dim"),
    ({"facets": True}, "facets"),
    ({"vertices": [[1, 2], [0, 2.0], [0, 1]]}, "vertices"),
    ({"coords": [["0", "0"], [0.5, "0"], ["0", "1"]]}, "coords"),
    ({"coords": [["0", "0"], [True, "0"], ["0", "1"]]}, "coords"),
])
def test_non_integer_polytope_is_exit_two(json_file, change, field, capsys):
    pd = {"dim": 2, "facets": 3, "vertices": [[1, 2], [0, 2], [0, 1]],
          "coords": [["0", "0"], ["1", "0"], ["0", "1"]]}
    pf = json_file({**pd, **change})
    lf = json_file({"lambda": [[-1, -1], [1, 0], [0, 1]], "base_vertex": 0})
    assert main(["kring", pf, lf]) == 2
    assert f"{field}: expected an integer" in capsys.readouterr().err


def test_integer_coords_are_accepted(json_file, capsys):
    pf = json_file({"dim": 2, "facets": 3, "vertices": [[1, 2], [0, 2], [0, 1]],
                    "coords": [[0, 0], [1, "0"], ["0", 1]]})
    lf = json_file({"lambda": [[-1, -1], [1, 0], [0, 1]], "base_vertex": 0})
    assert main(["kring", pf, lf]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["polytope"]["coords"] == [["0", "0"], ["1", "0"], ["0", "1"]]


@pytest.mark.parametrize("cartan, field", [
    ({"type": "A", "rank": 2.0, "word": [1, 2]}, "rank"),
    ({"type": "A", "rank": 2, "word": [1, 2.0]}, "word"),
    ({"type": "matrix", "matrix": [[2, -1], [-1.0, 2]], "word": [1, 2]}, "matrix"),
    ({"type": "matrix", "rank": 1.5, "matrix": [[2, -1], [-1, 2]], "word": [1, 2]},
     "rank"),
])
def test_non_integer_cartan_is_exit_two(json_file, cartan, field, capsys):
    cf = json_file(cartan)
    assert main(["bott-samelson", cf]) == 2
    assert f"{field}: expected an integer" in capsys.readouterr().err


def test_cartan_matrix_of_the_wrong_rank_is_exit_two(json_file, capsys):
    # rank may be left out of a matrix, but when given it is the matrix size
    cf = json_file({"type": "matrix", "rank": 3, "matrix": [[2, -1], [-1, 2]],
                    "word": [1, 2]})
    assert main(["bott-samelson", cf]) == 2
    assert "rank: 3 is not the size of the 2x2 matrix" in capsys.readouterr().err


@pytest.mark.parametrize("coords, options, field", [
    ([["1/0", "0"], ["1", "0"], ["0", "1"]], [], "coords"),
    ([["0", "0"], ["1", "0"], ["0", "1"]], ["--r", "1/0"], "--r"),
    ([["0", "0"], ["1", "0"], ["0", "1"]], ["--functional", "1,1/0"], "--functional"),
])
def test_zero_denominator_is_exit_two(json_file, coords, options, field, capsys):
    pf = json_file({"dim": 2, "facets": 3, "vertices": [[1, 2], [0, 2], [0, 1]],
                    "coords": coords})
    lf = json_file({"lambda": [[-1, -1], [1, 0], [0, 1]], "base_vertex": 0})
    assert main(["kring", pf, lf, *options]) == 2
    err = capsys.readouterr().err
    assert f"input error: {field}: expected a fraction with a nonzero denominator" in err


@pytest.mark.parametrize("text", ["1,,2", "1,2,", ","])
@pytest.mark.parametrize("option", ["--r", "--functional"])
def test_empty_field_is_exit_two(simplex_files, option, text, capsys):
    # an empty field is a typo, not a shorter list
    pf, lf = simplex_files(2)
    assert main(["kring", pf, lf, option, text]) == 2
    err = capsys.readouterr().err
    assert f"input error: {option}: empty field in {text!r}" in err


def test_non_integer_order_file_is_exit_two(json_file, simplex_files, capsys):
    pf, lf = simplex_files(2)
    of = json_file({"order": [0, 2.0, 1]})
    assert main(["kring", pf, lf, "--order-file", of]) == 2
    assert "order: expected an integer" in capsys.readouterr().err


@pytest.mark.parametrize("order", [[0, 1, 5], [-1, 0, 1], [0, 1, 3]])
def test_order_file_not_a_permutation_is_exit_two(json_file, simplex_files,
                                                  order, capsys):
    # an order that names no vertex is bad input, not a crash
    pf, lf = simplex_files(2)
    of = json_file({"order": order})
    assert main(["kring", pf, lf, "--order-file", of]) == 2
    err = capsys.readouterr().err
    assert f"input error: order {order} is not a permutation of 0..2" in err


def test_bad_coefficient_arity_is_exit_two(simplex_files, capsys):
    pf, lf = simplex_files(2)
    assert main(["kring", pf, lf, "--r", "2"]) == 2
    capsys.readouterr()


# --- the shared parser ---------------------------------------------------------


@pytest.fixture
def fresh_parser():
    """The test starts without a shared parser and leaves none behind, so the
    one its first main call builds is its own."""
    cli.build_parser.cache_clear()
    yield
    cli.build_parser.cache_clear()


def shared_parser_runs(json_file, simplex_files, tower_files):
    """(argv with options, the same argv without them) for every subcommand;
    each option changes the exit code or the report."""
    spf, slf = simplex_files(2)
    cpf, clf = cube_files(json_file)
    of = json_file({"order": [0, 2, 1]})
    tf = tower_files(2, [(1, 2, 1)])
    bf = json_file({"type": "B", "rank": 2, "word": [1, 2]})
    return [
        (["validate", spf, slf], ["--format", "text"]),
        (["kring", cpf, clf], ["--r", "2,3", "--functional", "3,1",
                               "--format", "text"]),
        (["kring", spf, slf], ["--order-file", of]),
        (["kring", cpf, clf], ["--budget", "1"]),
        (["bott", tf], ["--format", "text", "--budget", "1"]),
        (["bott-samelson", bf], ["--format", "text", "--budget", "1"]),
        (["compare", tf], ["--budget", "1"]),
    ]


def run_main(argv, capsys):
    code = main(argv)
    return code, capsys.readouterr().out


def test_no_option_carries_over_to_the_next_call(json_file, simplex_files,
                                                 tower_files, fresh_parser,
                                                 capsys):
    runs = shared_parser_runs(json_file, simplex_files, tower_files)
    argvs = [a for base, options in runs for a in (base + options, base)]
    expected = {}
    for argv in argvs:
        cli.build_parser.cache_clear()
        expected[tuple(argv)] = run_main(argv, capsys)
    for base, options in runs:
        assert expected[tuple(base + options)] != expected[tuple(base)]
    # one parser from here on: each call without options follows the same
    # call with them, and the subcommands alternate, twice over
    cli.build_parser.cache_clear()
    for argv in argvs + argvs:
        assert run_main(argv, capsys) == expected[tuple(argv)], argv


def test_parse_error_leaves_the_shared_parser_working(simplex_files,
                                                      fresh_parser, capsys):
    pf, lf = simplex_files(2)
    argv = ["kring", pf, lf]
    code, report = run_main(argv, capsys)
    assert code == 0
    for bad in (["--bogus"], ["--budget", "-5"]):
        with pytest.raises(SystemExit) as exc:
            main(argv + bad)
        assert exc.value.code == 2
        capsys.readouterr()
        assert run_main(argv, capsys) == (0, report)


def test_main_builds_one_parser(json_file, simplex_files, tower_files,
                                fresh_parser, monkeypatch, capsys):
    # no pinned benchmark count sees the parser, so count its constructions:
    # the top-level parser and one per subcommand, once per process
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    cli.build_parser.__wrapped__()
    one_parser = list(built)
    assert one_parser.count("ktoric") == 1
    built.clear()
    for base, options in shared_parser_runs(json_file, simplex_files,
                                            tower_files):
        main(base + options)
        main(base)
    capsys.readouterr()
    assert built == one_parser


# --- kring reports -----------------------------------------------------------


def test_kring_report_frozen(simplex_files, capsys):
    pf, lf = simplex_files(2)
    assert main(["kring", pf, lf]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["command"] == "kring"
    assert report["rank"] == 3
    assert report["integral"] is True
    assert report["relations"] == ["x0*x1*x2", "-x1 + x0", "-x2 + x0"]
    assert report["basis"] == [[], [0], [0, 1]]
    assert report["coefficients"] == ["1", "1"]
    assert report["vertex_order"] == [0, 1, 2]
    assert [0, 1, 1, "1"] in report["structure_constants"]
    assert report["change_determinant"] == "1"
    assert report["projective_check"] == {
        "relation": "x0^3",
        "reduces_to_zero": True,
    }


def test_kring_output_is_deterministic(simplex_files, capsys):
    pf, lf = simplex_files(3)
    assert main(["kring", pf, lf]) == 0
    first = capsys.readouterr().out
    assert main(["kring", pf, lf]) == 0
    assert capsys.readouterr().out == first
    assert first.endswith("\n")


def test_kring_report_round_trips(simplex_files, capsys):
    pf, lf = simplex_files(2)
    main(["kring", pf, lf])
    report = json.loads(capsys.readouterr().out)
    p = jsonio.polytope_from_dict(report["polytope"])
    lam = jsonio.charmap_from_dict(report["lambda"])
    assert p.dim == 2 and p.facet_count == 3
    assert lam.vectors == ((-1, -1), (1, 0), (0, 1))
    assert lam.base_vertex == 0
    # the echoed documents read back to what the input files gave
    with open(pf, encoding="utf-8") as fh:
        assert p == jsonio.polytope_from_dict(json.load(fh))
    with open(lf, encoding="utf-8") as fh:
        assert lam == jsonio.charmap_from_dict(json.load(fh))


@pytest.mark.parametrize("lam, projective", [
    ([[-1, -1], [1, 0], [0, 1]], {"relation": "x0^3", "reduces_to_zero": True}),
    ([[1, 1], [1, 0], [0, 1]], None),
], ids=["standard", "covector-not-minus-one"])
def test_kring_projective_check_needs_minus_one_on_the_far_facet(
        json_file, lam, projective, capsys):
    # every vertex of both labelings is unimodular; only where each dual
    # covector takes -1 on facet 0's vector does the check apply
    pf = json_file(jsonio.polytope_to_dict(simplex(2)))
    lf = json_file({"lambda": lam, "base_vertex": 0})
    assert main(["kring", pf, lf]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["rank"] == 3
    assert report.get("projective_check") == projective


@pytest.mark.parametrize("p, lam, functional", [
    (simplex(2), simplex_charmap(2), "-1,2"),
    (*bott_charmap(BottMatrix(3, [(1, 2, 1), (2, 3, -1)])), "-1,2,-4"),
], ids=["triangle", "cube3"])
def test_kring_default_base_vertex_is_the_lowest(json_file, p, lam, functional,
                                                 capsys):
    # a labeling without base_vertex, as the benchmark's are, takes the
    # lowest vertex of the order, here not vertex 0, and reports as the same
    # labeling with that base vertex set
    pf = json_file(jsonio.polytope_to_dict(p))
    vectors = [list(v) for v in lam.vectors]
    options = [f"--functional={functional}"]
    code, out = run_main(["kring", pf, json_file({"lambda": vectors}), *options],
                         capsys)
    assert code == 0
    report = json.loads(out)
    base = report["base_vertex"]
    assert base == report["vertex_order"][0] != 0
    lf = json_file({"lambda": vectors, "base_vertex": base})
    assert run_main(["kring", pf, lf, *options], capsys) == (code, out)


def test_kring_functional_flag(simplex_files, capsys):
    pf, lf = simplex_files(2)
    assert main(["kring", pf, lf, "--functional", "3,1"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["vertex_order"] == [0, 2, 1]
    assert report["rank"] == 3


def test_kring_order_file(json_file, simplex_files, capsys):
    pf, lf = simplex_files(2)
    of = json_file({"order": [0, 2, 1]})
    assert main(["kring", pf, lf, "--order-file", of]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["vertex_order"] == [0, 2, 1]


def test_functional_and_order_file_are_exclusive(json_file, simplex_files,
                                                 capsys):
    # the vertex order has one setter: beside an order file a functional,
    # even one that does not parse, would go unread
    pf, lf = simplex_files(2)
    of = json_file({"order": [0, 2, 1]})
    for first, second in (("--order-file", "--functional"),
                          ("--functional", "--order-file")):
        values = {"--order-file": of, "--functional": "x"}
        with pytest.raises(SystemExit) as exc:
            main(["kring", pf, lf, f"{first}={values[first]}",
                  f"{second}={values[second]}"])
        assert exc.value.code == 2
        assert (f"argument {second}: not allowed with argument {first}"
                in capsys.readouterr().err)


@pytest.mark.parametrize("option, value, key, expected", [
    ("--functional", "-1,2", "vertex_order", [1, 0, 2]),
    ("--r", "-1/2,3", "coefficients", ["-1/2", "3"]),
])
def test_signed_list_needs_an_equals_sign(simplex_files, option, value, key,
                                          expected, capsys):
    # argparse takes a separate value that starts with "-" for an option
    pf, lf = simplex_files(2)
    with pytest.raises(SystemExit) as exc:
        main(["kring", pf, lf, option, value])
    assert exc.value.code == 2
    assert f"{option}: expected one argument" in capsys.readouterr().err
    assert main(["kring", pf, lf, f"{option}={value}"]) == 0
    assert json.loads(capsys.readouterr().out)[key] == expected


def test_kring_coefficients_flag(simplex_files, capsys):
    pf, lf = simplex_files(2)
    assert main(["kring", pf, lf, "--r", "2,3"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["coefficients"] == ["2", "3"]
    assert report["integral"] is False
    assert report["rank"] == 3
    assert report["projective_check"]["reduces_to_zero"] is True


def test_kring_failed_projective_check_is_exit_one(simplex_files, capsys,
                                                   monkeypatch):
    failed = {"relation": "x0^3", "reduces_to_zero": False}
    monkeypatch.setattr(cli, "_projective_check", lambda pres, basis: failed)
    pf, lf = simplex_files(2)
    assert main(["kring", pf, lf]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["projective_check"] == failed


def test_kring_text_format(simplex_files, capsys):
    pf, lf = simplex_files(2)
    assert main(["kring", pf, lf, "--format", "text"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("command: kring")
    assert "rank: 3" in out


# --- tower commands ----------------------------------------------------------


def test_bott_report(tower_files, capsys):
    tf = tower_files(2, [(1, 2, 1)])
    assert main(["bott", tf]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["rank"] == 4 and report["expected_rank"] == 4
    assert report["involution_ok"] is True
    assert report["relations"][0] == "y1^2 - 2*y1 + 1"
    assert report["variables"] == ["y1", "y2", "y1_inv", "y2_inv"]


def test_compare_report(tower_files, capsys):
    tf = tower_files(2, [(1, 2, 1)])
    assert main(["compare", tf]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["isomorphic"] is True
    assert report["polytope_rank"] == 4 and report["laurent_rank"] == 4
    assert report["relations_zero"] is True
    assert report["failed_relations"] == []
    assert report["transition_determinant"] == "1"
    assert report["unimodular"] is True


def test_compare_text_format(tower_files, capsys):
    tf = tower_files(2, [(1, 2, 1)])
    assert main(["compare", tf, "--format", "text"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "command: compare"
    for line in ("isomorphic: true", "polytope_rank: 4", "laurent_rank: 4"):
        assert line in lines


def test_compare_on_a_large_twist(tower_files, capsys):
    # the covector relations hold (1 - x_j)^2000, expanded term by term
    tf = tower_files(2, [(1, 2, 2000)])
    assert main(["compare", tf]) == 0
    assert json.loads(capsys.readouterr().out)["isomorphic"] is True


def test_bott_samelson_report(json_file, capsys):
    cf = json_file({"type": "A", "rank": 2, "word": [1, 2]})
    assert main(["bott-samelson", cf]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["matrix"] == {"n": 2, "c": [[1, 2, -1]]}
    assert report["input"]["type"] == "matrix"
    assert report["input"]["convention"] == "row"
    assert "-y1*y2 + y2^2 + y1 - y2" in report["relations"]
    assert report["rank"] == 4
    assert len(report["notes"]) == 2


def test_bott_samelson_convention_flag(json_file, capsys):
    # the word file's "convention" key is the one setter of the pairing
    for convention, twist in ((None, -2), ("row", -2), ("col", -1)):
        doc = {"type": "B", "rank": 2, "word": [1, 2]}
        if convention is not None:
            doc["convention"] = convention
        cf = json_file(doc)
        assert main(["bott-samelson", cf]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["input"]["convention"] == (convention or "row")
        assert report["matrix"] == {"n": 2, "c": [[1, 2, twist]]}
        assert report["rank"] == 4
    with pytest.raises(SystemExit) as exc:
        main(["bott-samelson", cf, "--convention", "col"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --convention col" in capsys.readouterr().err


@pytest.mark.parametrize("command, doc, reader, key", [
    ("bott", {"n": 3, "c": [[1, 2, 1], [1, 3, -2], [2, 3, 1]]},
     jsonio.bott_from_dict, "input"),
    ("compare", {"n": 2, "c": [[1, 2, -1]]}, jsonio.bott_from_dict, "input"),
    # a lower-case named table, read by cartan_matrix
    ("bott-samelson", {"type": "b", "rank": 2, "word": [1, 2],
                       "convention": "col"},
     jsonio.cartan_word_from_dict, "input"),
    ("bott-samelson", {"type": "matrix", "matrix": [[2, -1], [-3, 2]],
                       "word": [2, 1]},
     jsonio.cartan_word_from_dict, "input"),
])
def test_echoed_input_reads_back(json_file, command, doc, reader, key, capsys):
    # the report's copy of its input holds only keys the reader reads, and
    # reads back to what the input file gave
    assert main([command, json_file(doc)]) == 0
    echoed = json.loads(capsys.readouterr().out)[key]
    assert reader(echoed) == reader(doc)


def test_tower_duplicate_entry_is_exit_two(tower_files, capsys):
    tf = tower_files(2, [(1, 2, 1), (1, 2, 2)])
    assert main(["bott", tf]) == 2
    assert "given twice" in capsys.readouterr().err


# --- report digests ------------------------------------------------------------


def sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def tower_doc(n, seed):
    tower = random_tower(n, random.Random(seed))
    return {"n": n, "c": [list(t) for t in tower.triples]}


@pytest.mark.parametrize("command, doc, digest", [
    # a tower inside the packed-monomial degree limit, with degree-301
    # relations
    pytest.param("bott", {"n": 2, "c": [[1, 2, 300]]},
                 "6b1f67b04a5c1e4a8d48d2bc9dae209aed2e3092290d825402b87b93d785ab75",
                 id="bott-tower300"),
    # the frontier: where the Groebner engine does the most work in a report
    pytest.param("compare", tower_doc(5, 17),
                 "f6b955483548d03e65422dd08b74ae65b9aa87449db2699c228c2c02ce5b0808",
                 id="compare-seed17-tower5"),
    pytest.param("compare", tower_doc(5, 5),
                 "e900d96b061977d13029c94e601c09ec9e65e08f9e72cfb1c678950d848ad8a5",
                 id="compare-seed5-tower5"),
    pytest.param("bott-samelson",
                 {"type": "A", "rank": 3, "word": [1, 2, 1, 3, 2, 1]},
                 "06a8c65bae4847502dac480c0ef5db00f4d6f54d5b0c4347d7bd2efa33da6da5",
                 id="bott-samelson-A3-longest"),
    pytest.param("bott-samelson",
                 {"type": "G", "rank": 2, "word": [1, 2, 1, 2, 1, 2]},
                 "aee2f284766ed86ea6266959a34ad502883a1dbc347933481f905d366734521b",
                 id="bott-samelson-G2-longest"),
])
def test_report_digest(json_file, capsys, command, doc, digest):
    # byte-identical reports under the default budget; the digests were
    # taken before monomials were packed inside the Groebner engine
    assert main([command, json_file(doc)]) == 0
    assert sha256(capsys.readouterr().out) == digest


def polytope_docs(p, lam):
    return jsonio.polytope_to_dict(p), jsonio.charmap_to_dict(lam)


def simplex_cubed():
    p, lam = simplex(2), simplex_charmap(2)
    for _ in range(2):
        p, lam = (product(p, simplex(2)),
                  product_charmap(p, lam, simplex(2), simplex_charmap(2)))
    return p, lam


@pytest.mark.parametrize("docs, options, digest", [
    # the two frontier polytopes of the kring benchmark: 32 and 27 vertices
    pytest.param(polytope_docs(*bott_charmap(BottMatrix(5))),
                 ["--functional=3,-7,19,-45,101"],
                 "1d6ec2341d47ff2ffe515f8fd2419c6e9d6229ea7ff412e044cefcac940bfb87",
                 id="kring-cube5-signed"),
    pytest.param(polytope_docs(*simplex_cubed()), [],
                 "4c912fa6747b72791793766bafa2f6109f33e28b97ae69fef115c8bd014a27a1",
                 id="kring-simplex222"),
    # a deformed simplex, whose structure constants are not all integers
    pytest.param(polytope_docs(simplex(3), simplex_charmap(3)),
                 ["--r", "2,1/3,5"],
                 "9c88f8563cf1d3957478636563ff8259e06e55ac5333468a52b08c286279e9aa",
                 id="kring-deformed-simplex3"),
])
def test_kring_report_digest(json_file, capsys, docs, options, digest):
    # byte-identical kring reports; the digests were taken while the
    # structure constants were still a dense tensor
    assert main(["kring", *map(json_file, docs), *options]) == 0
    assert sha256(capsys.readouterr().out) == digest


TOWER3 = {"n": 3, "c": [[1, 2, 1], [1, 3, -2], [2, 3, 1]]}
STAR = ({"dim": 2, "facets": 4, "vertices": [[0, 1], [0, 2], [0, 3]],
         "coords": [[0, 0], [1, 0], [0, 1]]},
        {"lambda": [[1, 0], [0, 1], [1, 1], [1, -1]], "base_vertex": 0})


@pytest.mark.parametrize("command, docs, options, code, digest", [
    # fractions in nested rows of structure constants
    pytest.param("kring", polytope_docs(simplex(3), simplex_charmap(3)),
                 ["--r", "2,1/3,5"], 0,
                 "d0747b5fad529ef9fd5272e28e368d127f16f3561499c0ee6298062586b53f8e",
                 id="kring-deformed-simplex3"),
    pytest.param("kring", polytope_docs(*simplex_cubed()), [], 0,
                 "9e58643e79690e71bb0fbb108c398545f30f780c28cdaa12c1f720aa802842df",
                 id="kring-simplex222"),
    pytest.param("compare", [TOWER3], [], 0,
                 "6f454fd4f912bcd489e64e3e31b3e488c01eeec780b81b6de9389568c0573f0b",
                 id="compare-tower3"),
    pytest.param("bott", [TOWER3], [], 0,
                 "c70127811a26f1c7ed1222fc6d26929e36c7066c6c264e47734412fe9dc3e07d",
                 id="bott-tower3"),
    pytest.param("bott-samelson", [{"type": "G", "rank": 2, "word": [1, 2, 1, 2]}],
                 [], 0,
                 "30a200c1ca3c1ee11f762abc2d1ce251ca6c46936507437b5a65742759e84a0c",
                 id="bott-samelson-G2"),
    # failing checks with their details, passing ones with empty details
    pytest.param("validate", STAR, [], 1,
                 "97025ed9c17e892bfba95fe13051bfb6079a89fed95262804e91913948f26574",
                 id="validate-star"),
])
def test_text_report_digest(json_file, capsys, command, docs, options, code,
                            digest):
    # --format text byte for byte: a dict's "key:" labels and a list's "-"
    # labels, nested values on the lines below their label, scalars after it;
    # the digests were taken while the renderer had one loop per container
    assert main([command, *map(json_file, docs), *options,
                 "--format", "text"]) == code
    assert sha256(capsys.readouterr().out) == digest
