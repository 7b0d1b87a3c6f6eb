"""Command line front end.

Exit codes: 0 everything passed, 1 a mathematical check failed, a budget
ran out or a monomial passed the Groebner engine's degree limit, 2 the input
could not be parsed or had the wrong shape.
"""

import argparse
import functools
import json
import sys
from fractions import Fraction

from . import jsonio
from .bott import (
    bott_equivalence,
    bott_presentation,
    bott_samelson_presentation,
    involution_check,
    laurent_rank,
)
from .charmap import CharacteristicMap, validate_charmap
from .errors import KtoricError
from .kring import CoefficientSpec, build_presentation, compute_basis
from .polyring import DEFAULT_BUDGET, Poly, render_poly
from .polytope import generic_functional, order_vertices, validate_polytope


def _load_json(path):
    """The JSON document in the file at path. One nested past the
    interpreter's recursion limit is unparsable input too: ValueError."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise ValueError(f"{path}: JSON nested too deeply") from None


def _fraction_list(text, field):
    """The comma-separated fractions of text; ValueError on an empty field."""
    parts = [part.strip() for part in text.split(",")]
    if "" in parts:
        raise ValueError(f"{field}: empty field in {text!r}")
    return tuple(jsonio.rational(part, field) for part in parts)


def _budget(text):
    n = int(text)
    if n < 0:
        raise argparse.ArgumentTypeError("must be nonnegative")
    return n


def _scalar(v):
    if v is None:
        return "null"
    if isinstance(v, bool):
        return "true" if v else "false"
    return str(v)


def _text_lines(obj, indent=0):
    pad = "  " * indent
    if isinstance(obj, dict):
        items = ((f"{k}:", v) for k, v in obj.items())
    elif isinstance(obj, list):
        items = (("-", v) for v in obj)
    else:
        return [f"{pad}{_scalar(obj)}"]
    lines = []
    for label, v in items:
        if isinstance(v, (dict, list)) and v:
            lines.append(f"{pad}{label}")
            lines.extend(_text_lines(v, indent + 1))
        else:
            lines.append(f"{pad}{label} {_scalar(v)}")
    return lines


def _emit(report, fmt):
    if fmt == "json":
        sys.stdout.write(jsonio.dumps(report))
    else:
        sys.stdout.write("\n".join(_text_lines(report)) + "\n")


def _projective_check(pres, basis):
    """When exactly one facet misses the base vertex and every dual covector
    takes -1 on its vector, the quotient satisfies one polynomial identity in
    the unit class of that facet; report whether it reduces to zero."""
    p = pres.polytope
    if p.facet_count != p.dim + 1:
        return None
    outside = [f for f in range(p.facet_count)
               if f not in p.vertices[pres.charmap.base_vertex]]
    f0 = outside[0]
    v0 = pres.charmap.vectors[f0]
    if any(u(v0) != -1 for u in pres.dual_covectors):
        return None
    d = p.facet_count
    y = 1 - Poly.variable(d, f0)
    rel = Poly.one(d)
    for r in (Fraction(1),) + pres.coeffs.values:
        rel = rel * (1 - r * y)
    return {
        "relation": render_poly(rel, pres.var_names, pres.order),
        "reduces_to_zero": basis.normal_form(rel).is_zero,
    }


def cmd_validate(args):
    p = jsonio.polytope_from_dict(_load_json(args.polytope))
    lam = jsonio.charmap_from_dict(_load_json(args.vectors))
    p_rep = validate_polytope(p)
    l_rep = validate_charmap(p, lam)
    _emit(jsonio.validate_report(p_rep, l_rep), args.format)
    return 0 if (p_rep.ok and l_rep.ok) else 1


def cmd_kring(args):
    p = jsonio.polytope_from_dict(_load_json(args.polytope))
    lam = jsonio.charmap_from_dict(_load_json(args.vectors))
    coeffs = CoefficientSpec.of(_fraction_list(args.r, "--r")) if args.r else None
    if args.order_file:
        vo = jsonio.vertex_order_from_dict(_load_json(args.order_file))
        if len(vo.order) != p.vertex_count:
            raise ValueError("vertex order size does not match the polytope")
    else:
        functional = (_fraction_list(args.functional, "--functional")
                      if args.functional else generic_functional(p.dim))
        vo = order_vertices(p, functional)
    if lam.base_vertex is None:
        lam = CharacteristicMap(lam.vectors, vo.order[0])
    pres = build_presentation(p, lam, coeffs)
    basis = compute_basis(pres, vo, budget=args.budget)
    projective = _projective_check(pres, basis)
    _emit(jsonio.kring_report(pres, basis, projective), args.format)
    return 1 if projective is not None and not projective["reduces_to_zero"] else 0


def _laurent_command(args, pres, report):
    """bott and bott-samelson: emit report(pres, rank, inv_ok) of pres."""
    rank = laurent_rank(pres, budget=args.budget)
    inv_ok = involution_check(pres, budget=args.budget)
    _emit(report(pres, rank, inv_ok), args.format)
    return 0 if (inv_ok and rank == 2 ** pres.n) else 1


def cmd_bott(args):
    pres = bott_presentation(jsonio.bott_from_dict(_load_json(args.tower)))
    return _laurent_command(args, pres, jsonio.bott_report)


def cmd_bott_samelson(args):
    cw = jsonio.cartan_word_from_dict(_load_json(args.cartan))
    return _laurent_command(args, bott_samelson_presentation(cw),
                            functools.partial(jsonio.samelson_report, cw))


def cmd_compare(args):
    c = jsonio.bott_from_dict(_load_json(args.tower))
    rep = bott_equivalence(c, budget=args.budget)
    _emit(jsonio.compare_report(c, rep), args.format)
    return 0 if rep.ok else 1


@functools.cache
def build_parser():
    """The parser of every subcommand, built on the first call and shared by
    every later one. argparse keeps no state between parse_args calls, and
    building the parser takes about a quarter of a small kring run."""
    ap = argparse.ArgumentParser(
        prog="ktoric",
        description="Exact quotient ring computations for labeled simple polytopes")
    sub = ap.add_subparsers(dest="command", required=True)

    def add_common(sp, budget=True):
        sp.add_argument("--format", choices=("json", "text"), default="json",
                        help="output format (default json)")
        if budget:
            sp.add_argument("--budget", type=_budget, default=DEFAULT_BUDGET,
                            help="cap on basis-computation work (default %(default)s)")

    v = sub.add_parser("validate", help="check a polytope and its facet vectors")
    v.add_argument("polytope", help="polytope JSON file")
    v.add_argument("vectors", help="facet vector JSON file")
    add_common(v, budget=False)

    k = sub.add_parser("kring", help="compute the quotient ring and face basis")
    k.add_argument("polytope", help="polytope JSON file")
    k.add_argument("vectors", help="facet vector JSON file")
    k.add_argument("--r", default=None,
                   help="comma separated coefficients, one per base facet (default all 1)")
    order = k.add_mutually_exclusive_group()
    order.add_argument("--functional",
                       help="comma separated height functional (default 1,2,4,...)")
    order.add_argument("--order-file", help="JSON file with an explicit vertex order")
    add_common(k)

    b = sub.add_parser("bott", help="relations and rank of a tower")
    b.add_argument("tower", help="tower JSON file")
    add_common(b)

    s = sub.add_parser("bott-samelson", help="tower relations from a word of simple roots")
    s.add_argument("cartan", help="Cartan data JSON file")
    add_common(s)

    c = sub.add_parser("compare", help="cross-check the two presentations of a tower")
    c.add_argument("tower", help="tower JSON file")
    add_common(c)
    return ap


_COMMANDS = {
    "validate": cmd_validate,
    "kring": cmd_kring,
    "bott": cmd_bott,
    "bott-samelson": cmd_bott_samelson,
    "compare": cmd_compare,
}


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except KtoricError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
