"""Test-side stand-ins the library does not need: a bare presentation built
from polynomials, monomial arithmetic and the DegRevLex order on exponent
tuples, monic polynomials and S-polynomials in Fraction arithmetic,
division by rescanning in Fraction arithmetic, a Groebner-basis check by
S-polynomials and that division, standard monomials by enumerating a box,
Gauss-Jordan elimination in Fraction arithmetic and the Bareiss
determinant, the dense tensor of a basis's structure constants, and the
tower constructions cell by cell: the stage relations from Poly powers, the
cube's facet vectors and a word's twists. The
division and the Groebner-basis check share no code with the library's
Groebner engine, nor the two eliminations with its elimination."""

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from operator import le, sub

from ktoric import DegRevLex, Monomial, Poly


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


def mono_divides(a, b):
    """Whether the exponent tuple a divides b."""
    return all(map(le, a, b))


def mono_quotient(a, b):
    """a / b for exponent tuples, b dividing a."""
    return tuple(map(sub, a, b))


def mono_lcm(a, b):
    return tuple(map(max, a, b))


def degrevlex_key(order):
    """The sort key of order on exponent tuples, as the textbook states it:
    degree first, then the exponents from the last variable in priority to
    the first, negated."""
    rev = tuple(reversed(order.priority))
    return lambda m: (sum(m), tuple(-m[v] for v in rev))


def monic(p, order):
    """p divided by its leading coefficient."""
    lc = p.terms[p.leading_monomial(order)]
    return Poly._raw(p.nvars, dict(_over(p, lc)))


def _over(p, lc):
    """The terms of p divided by lc; no division when lc is 1."""
    items = p.terms.items()
    return items if lc == 1 else [(m, c / lc) for m, c in items]


def s_polynomial(f, g, order):
    """The S-polynomial of f and g, both made monic, in Fraction arithmetic."""
    lf = f.leading_monomial(order)
    lg = g.leading_monomial(order)
    l = mono_lcm(lf, lg)
    uf, ug = mono_quotient(l, lf), mono_quotient(l, lg)
    out = {m * uf: c for m, c in _over(f, f.terms[lf])}
    for m, c in _over(g, g.terms[lg]):
        m = m * ug
        s = out.get(m)
        s = -c if s is None else s - c
        if s:
            out[m] = s
        else:
            del out[m]
    return Poly._raw(f.nvars, out)


def reference_division(terms, heads, order):
    """Division as the library did it before its heap, memo and table: every
    step rescans the working polynomial, the terms map, for its largest
    monomial under degrevlex_key and scans the (leading monomial, generator)
    heads from the first, in Fraction arithmetic throughout. Returns the
    remainder's terms, largest first."""
    key = degrevlex_key(order)
    remainder = {}
    work = dict(terms)
    while work:
        mono = max(work, key=key)
        coeff = work.pop(mono)
        for lm, g in heads:
            if mono_divides(lm, mono):
                factor = mono_quotient(mono, lm)
                scale = coeff / g.terms[lm]
                for m2, c2 in g.terms.items():
                    if m2 == lm:
                        continue
                    m = m2 * factor
                    s = work.get(m, Fraction(0)) - scale * c2
                    if s:
                        work[m] = s
                    else:
                        work.pop(m, None)
                break
        else:
            remainder[mono] = coeff
    return remainder


def remainder(p, gens, order):
    """The remainder of p by reference_division by the nonzero generators
    in sequence."""
    heads = [(g.leading_monomial(order), g) for g in gens if not g.is_zero]
    return Poly._raw(p.nvars, reference_division(p.terms, heads, order))


def is_groebner(gens, order):
    """Every pairwise S-polynomial reduces to zero by gens."""
    gens = [g for g in gens if not g.is_zero]
    return all(remainder(s_polynomial(f, g, order), gens, order).is_zero
               for i, f in enumerate(gens) for g in gens[i + 1:])


def box_standard_monomials(gb):
    """Standard monomials of gb by testing every monomial of the box whose
    side in each variable is the least pure power among the leading
    monomials; () for the unit ideal, None when some variable has no pure
    power. Sorted small to large."""
    lms = gb.leading_monomials()
    if any(lm.degree == 0 for lm in lms):
        return ()
    bound = [None] * gb.nvars
    for lm in lms:
        occurs = [(i, e) for i, e in enumerate(lm) if e]
        if len(occurs) == 1:
            i, e = occurs[0]
            bound[i] = e if bound[i] is None else min(bound[i], e)
    if None in bound:
        return None
    out = [Monomial(exps) for exps in product(*(range(b) for b in bound))
           if not any(mono_divides(lm, exps) for lm in lms)]
    return tuple(sorted(out, key=degrevlex_key(gb.order)))


def fraction_rref(a):
    """Reduced row echelon form and pivot columns by Gauss-Jordan elimination
    in Fraction arithmetic, the first nonzero entry of each column as pivot."""
    m = [[Fraction(x) for x in row] for row in a]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        pr = next((i for i in range(r, rows) if m[i][c]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return m, pivots


def bareiss_det(a):
    """Determinant of a square int matrix by Bareiss's fraction-free
    elimination (Math. Comp. 22, 1968), which shares no code with the
    library's Gauss-Jordan elimination."""
    n = len(a)
    if n == 0:
        return 1
    m = [list(row) for row in a]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k]), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        pivot, top = m[k][k], m[k]
        for i in range(k + 1, n):
            lead = m[i][k]
            # exact by the Bareiss identity; columns up to k become or stay
            # 0, and a row with lead 0 stays as it is when pivot == prev
            if lead or pivot != prev:
                m[i] = [(x * pivot - lead * y) // prev for x, y in zip(m[i], top)]
        prev = pivot
    return sign * m[n - 1][n - 1]


def dense_structure(b):
    """The m x m x m tensor of Fractions behind the nonzero structure
    constants of the BasisResult b: cell [i][j][k] is the coefficient of
    b_k in b_i b_j, 0 where no entry names it."""
    m = b.m
    cells = [[[Fraction(0)] * m for _ in range(m)] for _ in range(m)]
    for i, j, k, c in b.structure:
        cells[i][j][k] = c
    return tuple(tuple(map(tuple, row)) for row in cells)


def _entry(c):
    """c[i][j] for 1 <= i < j <= n, read from a dense matrix filled with the
    tower's twists."""
    dense = [[0] * (c.n + 1) for _ in range(c.n + 1)]
    for i, j, v in c.triples:
        dense[i][j] = v
    return lambda i, j: dense[i][j]


def reference_stage_relations(c):
    """The ideal generators of bott_presentation(c), the stage relations
    first: each P_i a product of Poly powers, one entry per earlier stage
    and one multiplication per unit of twist."""
    entry = _entry(c)
    n = c.n
    nv = 2 * n
    defining = []
    for i in range(1, n + 1):
        yi = Poly.variable(nv, i - 1)
        prod = Poly.one(nv)
        for j in range(1, i):
            cji = entry(j, i)
            if cji > 0:
                prod = prod * Poly.variable(nv, n + j - 1) ** cji
            elif cji < 0:
                prod = prod * Poly.variable(nv, j - 1) ** (-cji)
        defining.append((yi - 1) * (yi - prod))
    inverses = [Poly.variable(nv, i) * Poly.variable(nv, n + i) - 1
                for i in range(n)]
    return tuple(defining + inverses)


def reference_cube_vectors(c):
    """The facet vectors of bott_charmap(c), one entry per cell: direction
    i's lower facet carries e_i, its upper one -e_i minus row i."""
    entry = _entry(c)
    n = c.n
    vecs = []
    for i in range(1, n + 1):
        lower = tuple(1 if k == i - 1 else 0 for k in range(n))
        upper = [0] * n
        upper[i - 1] = -1
        for j in range(i + 1, n + 1):
            upper[j - 1] = -entry(i, j)
        vecs.append(lower)
        vecs.append(tuple(upper))
    return tuple(vecs)


def reference_word_triples(cw):
    """The twists of cartan_word_matrix(cw): the matrix built row by row
    from the pairings of the letters, then scanned cell by cell for its
    nonzero entries."""
    w = cw.word
    n = len(w)
    rows = [[cw.pairing(w[i], w[j]) for j in range(i + 1, n)]
            for i in range(n - 1)]
    return tuple((i + 1, i + 2 + k, v) for i, row in enumerate(rows)
                 for k, v in enumerate(row) if v)
