"""Test-side stand-ins the library does not need: a bare presentation built
from polynomials, and a Groebner-basis check by S-polynomials."""

from dataclasses import dataclass

from ktoric import DegRevLex, reduce, s_polynomial


@dataclass(frozen=True, eq=False)
class SimplePresentation:
    """Generators and relations only: enough for quotient_basis and for the
    source of ring_map_check."""

    nvars: int
    ideal_gens: tuple
    order: DegRevLex
    var_names: tuple


def polynomial_presentation(ideal_gens, var_names=None):
    gens = tuple(ideal_gens)
    nvars = gens[0].nvars
    if var_names is None:
        var_names = tuple(f"t{i}" for i in range(nvars))
    return SimplePresentation(nvars, gens, DegRevLex.standard(nvars),
                              tuple(var_names))


def is_groebner(gens, order):
    """Every pairwise S-polynomial reduces to zero by gens."""
    gens = [g for g in gens if not g.is_zero]
    return all(reduce(s_polynomial(f, g, order), gens, order).is_zero
               for i, f in enumerate(gens) for g in gens[i + 1:])
