"""Input schemas and deterministic report dictionaries.

Key order in every report is fixed at construction so that serializing the
same computation twice gives byte-identical output. Rationals travel as
"p/q" strings, never floats. The readers take JSON integers only where an
integer is meant: a float or a boolean is refused, not truncated.
"""

import json
from fractions import Fraction
from json.encoder import encode_basestring_ascii

from .bott import BottMatrix, CartanWord, cartan_matrix
from .charmap import CharacteristicMap
from .polyring import render_poly
from .polytope import SimplePolytope, VertexOrder


def _int(x, field):
    if type(x) is not int:
        raise ValueError(f"{field}: expected an integer, got {x!r}")
    return x


def _list(x, field):
    if type(x) is not list:
        raise ValueError(f"{field}: expected a list, got {x!r}")
    return x


def _str(x, field):
    if type(x) is not str:
        raise ValueError(f"{field}: expected a string, got {x!r}")
    return x


def _ints(seq, field):
    return tuple(_int(x, field) for x in _list(seq, field))


def _require(data, *keys, optional=()):
    """Raise ValueError unless data's keys are keys plus some of optional."""
    if type(data) is not dict:
        raise ValueError(f"expected a JSON object, got {type(data).__name__}")
    for key in keys:
        if key not in data:
            raise ValueError(f"{key}: required key missing")
    for key in data:
        if key not in keys and key not in optional:
            raise ValueError(f"{key}: unknown key")


def rational(x, field):
    """x, a JSON integer or a string such as "-1/2", as a Fraction; the CLI
    reads its --r and --functional lists with it too. Raises ValueError
    naming field on anything else, a zero denominator included."""
    if type(x) not in (int, str):
        raise ValueError(f"{field}: expected an integer or a string, got {x!r}")
    # "[-]digits", the common case, goes to int(): the Fraction string
    # parser gives the same, more slowly
    digits = x.removeprefix("-") if type(x) is str else ""
    try:
        if digits.isascii() and digits.isdigit():
            return Fraction(int(x))
        return Fraction(x)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"{field}: expected a fraction with a nonzero "
                         f"denominator, got {x!r}") from None


def polytope_from_dict(data):
    _require(data, "dim", "facets", "vertices", optional=("coords",))
    vertices = tuple(frozenset(_ints(v, "vertices"))
                     for v in _list(data["vertices"], "vertices"))
    coords = data.get("coords")
    if coords is not None:
        coords = tuple(tuple(rational(x, "coords") for x in _list(pt, "coords"))
                       for pt in _list(coords, "coords"))
    return SimplePolytope(_int(data["dim"], "dim"), _int(data["facets"], "facets"),
                          vertices, coords)


def polytope_to_dict(p):
    out = {
        "dim": p.dim,
        "facets": p.facet_count,
        "vertices": [sorted(v) for v in p.vertices],
    }
    if p.coords is not None:
        out["coords"] = [[str(x) for x in pt] for pt in p.coords]
    return out


def charmap_from_dict(data):
    _require(data, "lambda", optional=("base_vertex",))
    vectors = tuple(_ints(row, "lambda") for row in _list(data["lambda"], "lambda"))
    base = data.get("base_vertex")
    return CharacteristicMap(vectors,
                             None if base is None else _int(base, "base_vertex"))


def charmap_to_dict(lam):
    out = {"lambda": [list(v) for v in lam.vectors]}
    if lam.base_vertex is not None:
        out["base_vertex"] = lam.base_vertex
    return out


def bott_from_dict(data):
    _require(data, "n", optional=("c",))
    triples = _list(data.get("c", []), "c")
    for t in triples:
        if type(t) is not list or len(t) != 3:
            raise ValueError(f"c: expected [i, j, value], got {t!r}")
    return BottMatrix(_int(data["n"], "n"), tuple(_ints(t, "c") for t in triples))


def bott_to_dict(c):
    return {"n": c.n, "c": [list(t) for t in c.triples]}


def cartan_word_from_dict(data):
    _require(data, "type", "word", optional=("rank", "matrix", "convention"))
    word = _ints(data["word"], "word")
    # any case, as cartan_matrix reads a named kind
    if _str(data["type"], "type").upper() == "MATRIX":
        _require(data, "type", "word", "matrix", optional=("rank", "convention"))
        mat = tuple(_ints(row, "matrix") for row in _list(data["matrix"], "matrix"))
        if "rank" in data and _int(data["rank"], "rank") != len(mat):
            raise ValueError(f"rank: {data['rank']} is not the size of the "
                             f"{len(mat)}x{len(mat)} matrix")
    else:
        _require(data, "type", "word", "rank", optional=("convention",))
        mat = cartan_matrix(data["type"], _int(data["rank"], "rank"))
    return CartanWord(mat, word, data.get("convention", "row"))


def cartan_word_to_dict(cw):
    return {
        "type": "matrix",
        "rank": cw.rank,
        "matrix": [list(row) for row in cw.cartan],
        "word": list(cw.word),
        "convention": cw.convention,
    }


def vertex_order_from_dict(data):
    _require(data, "order")
    return VertexOrder(_ints(data["order"], "order"))


def _check_flags(report):
    return {c.name: bool(c.ok) for c in report.checks}


def _check_details(report):
    return {c.name: {"ok": bool(c.ok), "detail": c.detail} for c in report.checks}


def validate_report(polytope_rep, charmap_rep):
    return {
        "command": "validate",
        "ok": bool(polytope_rep.ok and charmap_rep.ok),
        "polytope": _check_details(polytope_rep),
        "lambda": _check_details(charmap_rep),
    }


def _sparse_structure(structure):
    if structure is None:
        return None
    return [[i, j, k, str(c)] for i, j, k, c in structure]


def _rendered_relations(pres):
    return [render_poly(g, pres.var_names, pres.order) for g in pres.ideal_gens]


def kring_report(pres, basis, projective=None):
    report = {
        "command": "kring",
        "polytope": polytope_to_dict(pres.polytope),
        "lambda": charmap_to_dict(pres.charmap),
        "coefficients": [str(v) for v in pres.coeffs.values],
        "base_vertex": pres.charmap.base_vertex,
        "variables": list(pres.var_names),
        "relations": _rendered_relations(pres),
        "vertex_count": basis.m,
        "rank": basis.rank,
        "integral": pres.coeffs.integral,
        "vertex_order": list(basis.vertex_order.order),
        "basis": [list(fs) for fs in basis.basis_facet_sets],
        "structure_constants": _sparse_structure(basis.structure),
        "change_determinant": (None if basis.change_det is None
                               else str(basis.change_det)),
        "warnings": list(basis.warnings),
    }
    if projective is not None:
        report["projective_check"] = projective
    report["checks"] = {
        "polytope": _check_flags(pres.polytope_report),
        "lambda": _check_flags(pres.charmap_report),
    }
    return report


def bott_report(pres, rank, involution_ok):
    return {
        "command": "bott",
        "input": bott_to_dict(pres.matrix),
        "variables": list(pres.var_names),
        "relations": _rendered_relations(pres),
        "rank": rank,
        "expected_rank": 2 ** pres.n,
        "involution_ok": bool(involution_ok),
    }


def samelson_report(cw, pres, rank, involution_ok):
    return {
        "command": "bott-samelson",
        "input": cartan_word_to_dict(cw),
        "matrix": bott_to_dict(pres.matrix),
        "variables": list(pres.var_names),
        "relations": _rendered_relations(pres),
        "notes": [f"y{i} is the class of the line bundle O(-M{i}) of the "
                  f"stage-{i} subvariety" for i in range(1, pres.n + 1)],
        "rank": rank,
        "expected_rank": 2 ** pres.n,
        "involution_ok": bool(involution_ok),
    }


def compare_report(c, rep):
    return {
        "command": "compare",
        "input": bott_to_dict(c),
        "expected_rank": 2 ** c.n,
        "polytope_rank": rep.dst_rank,
        "laurent_rank": rep.src_rank,
        "relations_zero": bool(rep.relations_zero),
        "failed_relations": list(rep.failed_relations),
        "transition_determinant": (None if rep.change_det is None
                                   else str(rep.change_det)),
        "unimodular": rep.unimodular,
        "isomorphic": bool(rep.ok),
    }


def _indented(x, nl):
    """x as json.dumps(x, indent=2) renders it, each newline followed by the
    indentation that nl holds."""
    t = type(x)
    if t is str:
        return encode_basestring_ascii(x)
    if t is int:
        return int.__repr__(x)
    if x is None:
        return "null"
    if t is bool:
        return "true" if x else "false"
    inner = nl + "  "
    if t is list or t is tuple:
        if not x:
            return "[]"
        return ("[" + inner + ("," + inner).join([_indented(v, inner) for v in x])
                + nl + "]")
    if t is dict and all(type(k) is str for k in x):
        if not x:
            return "{}"
        return ("{" + inner + ("," + inner).join(
            [encode_basestring_ascii(k) + ": " + _indented(v, inner)
             for k, v in x.items()]) + nl + "}")
    # other leaves and other keys render, or fail, as in json
    return json.dumps(x, indent=2).replace("\n", nl)


def dumps(report):
    """json.dumps(report, indent=2) + "\n", byte for byte, without json's
    pure-Python encoder, the one it takes whenever indent is set."""
    return _indented(report, "\n") + "\n"
