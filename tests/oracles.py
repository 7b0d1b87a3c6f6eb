"""Test-side stand-ins the library does not need: a bare presentation built
from polynomials, monomial arithmetic and the DegRevLex order on exponent
tuples, leading monomials, monic polynomials and S-polynomials in Fraction
arithmetic, division by rescanning in Fraction arithmetic, a Groebner-basis
check by S-polynomials and that division, standard monomials by enumerating
a box, Gauss-Jordan elimination in Fraction arithmetic with the solutions,
inverses and kernels it gives, the Bareiss determinant, the dense tensor of
a basis's structure constants, coordinates in a basis's face classes from
its normal forms alone, substitution into a quotient in Poly arithmetic,
the tower constructions cell by cell: the stage relations from Poly powers,
the cube's facet vectors and a word's twists, the structure constants of
a tower's cube ring by a triangular rewrite, the involution check by
reducing each relation's plain swap, the built-in Cartan matrices kind by
kind, the vertices adjacent to each vertex of an incidence table by the
pairwise scan, and the structure constants of the cohomology ring from
sympy's Groebner basis of the Stanley-Reisner ideal plus the linear
relations. The division, the
Groebner-basis check and the rewrite share no code with the library's
Groebner engine, nor the two eliminations with its elimination."""

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import combinations, product
from math import comb
from operator import add, le, sub

from ktoric import DegRevLex, Monomial, Poly, buchberger
from ktoric.validation import strict_int


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


def leading_monomial(p, order):
    """The largest monomial of the nonzero Poly p under order."""
    if not p.terms:
        raise ValueError("the zero polynomial has no leading monomial")
    return max(p.terms, key=order.key)


def monic(p, order):
    """p divided by its leading coefficient."""
    lc = p.terms[leading_monomial(p, order)]
    return Poly._raw(p.nvars, dict(_over(p, lc)))


def _over(p, lc):
    """The terms of p divided by lc; no division when lc is 1."""
    items = p.terms.items()
    return items if lc == 1 else [(m, c / lc) for m, c in items]


def s_polynomial(f, g, order):
    """The S-polynomial of f and g, both made monic, in Fraction arithmetic."""
    lf = leading_monomial(f, order)
    lg = leading_monomial(g, order)
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
    heads = [(leading_monomial(g, order), g) for g in gens if not g.is_zero]
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
    lms = [gb.order.unpack(lm) for lm, _, _ in gb.heads]
    if any(lm.degree == 0 for lm in lms):
        return ()
    bound = [None] * gb.order.nvars
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


def fraction_solve(a, b):
    """One solution of a*x == b by fraction_rref, free variables 0, or None
    when the system is inconsistent."""
    m, pivots = fraction_rref([list(row) + [x] for row, x in zip(a, b)])
    cols = len(a[0])
    if cols in pivots:
        return None
    x = [Fraction(0)] * cols
    for r, c in enumerate(pivots):
        x[c] = m[r][cols]
    return x


def fraction_inverse(a):
    """The inverse by fraction_rref of [a | I], or None when a is singular."""
    n = len(a)
    m, pivots = fraction_rref([list(row) + [int(i == j) for j in range(n)]
                               for i, row in enumerate(a)])
    return [row[n:] for row in m] if pivots == list(range(n)) else None


def fraction_nullspace(a):
    """Basis of the right kernel by fraction_rref, one vector per free
    column."""
    cols = len(a[0]) if a else 0
    m, pivots = fraction_rref(a)
    basis = []
    for f in (c for c in range(cols) if c not in pivots):
        vec = [Fraction(0)] * cols
        vec[f] = Fraction(1)
        for r, c in enumerate(pivots):
            vec[c] = -m[r][f]
        basis.append(vec)
    return basis


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


@cache
def face_change_inverse(b):
    """The inverse, by fraction_inverse, of the matrix whose column j holds
    the normal form of the j-th face class of the BasisResult b over its
    standard monomials; None when the face classes are not a basis."""
    index = {mono: i for i, mono in enumerate(b.std_monomials)}
    d = b.presentation.nvars
    change = [[Fraction(0)] * b.m for _ in index]
    for j, mono in enumerate(b.basis_monomials):
        for s, c in b.groebner.normal_form(Poly(d, {mono: 1})).terms.items():
            change[index[s]][j] = c
    return fraction_inverse(change)


def fraction_coords(b, p):
    """Coordinates of the Poly p in the face classes of the BasisResult b,
    accumulated in Fraction arithmetic from its normal form and
    face_change_inverse(b)."""
    index = {mono: i for i, mono in enumerate(b.std_monomials)}
    out = [Fraction(0)] * b.m
    for mono, c in b.groebner.normal_form(p).terms.items():
        for r, row in enumerate(face_change_inverse(b)):
            out[r] += row[index[mono]] * c
    return tuple(out)


def reference_evaluate_in_quotient(p, images, gb):
    """kring.evaluate_in_quotient in Poly arithmetic: substitute images for
    the variables of p, each power of an image and each product reduced
    through gb.normal_form as it is formed."""
    nd = gb.order.nvars
    powers = [[Poly.one(nd), gb.normal_form(im)] for im in images]

    def power(i, e):
        col = powers[i]
        while len(col) <= e:
            col.append(gb.normal_form(col[-1] * col[1]))
        return col[e]

    total = Poly.zero(nd)
    for mono, coeff in p.terms.items():
        val = Poly.constant(nd, coeff)
        for i, e in mono.exponents:
            val = gb.normal_form(val * power(i, e))
        total = total + val
    return gb.normal_form(total)


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


def reference_cartan_matrix(kind, rank):
    """cartan_matrix(kind, rank) written out kind by kind, each with its own
    rank check and its own matrix."""
    kind = str(kind).upper()
    l = strict_int(rank)
    if kind == "A":
        if l < 1:
            raise ValueError("kind A needs rank >= 1")
        return tuple(tuple(2 if i == j else (-1 if abs(i - j) == 1 else 0)
                           for j in range(l)) for i in range(l))
    if kind in ("B", "C"):
        if l < 2:
            raise ValueError(f"kind {kind} needs rank >= 2")
        m = [[2 if i == j else (-1 if abs(i - j) == 1 else 0)
              for j in range(l)] for i in range(l)]
        if kind == "B":
            m[l - 1][l - 2] = -2
        else:
            m[l - 2][l - 1] = -2
        return tuple(tuple(row) for row in m)
    if kind == "D":
        if l < 3:
            raise ValueError("kind D needs rank >= 3")
        m = [[2 if i == j else 0 for j in range(l)] for i in range(l)]
        for i in range(l - 2):
            m[i][i + 1] = m[i + 1][i] = -1
        m[l - 3][l - 1] = m[l - 1][l - 3] = -1
        return tuple(tuple(row) for row in m)
    if kind == "G":
        if l != 2:
            raise ValueError("kind G needs rank 2")
        return ((2, -1), (-3, 2))
    if kind == "F":
        if l != 4:
            raise ValueError("kind F needs rank 4")
        return ((2, -1, 0, 0), (-1, 2, -1, 0), (0, -2, 2, -1), (0, 0, -1, 2))
    raise ValueError(f"unknown kind {kind!r}")


def tower_structure(c):
    """The structure constants of the cube ring of the tower c, found with
    no Groebner basis: {(S, T): {U: k}}, z_S z_T = sum of the k z_U over
    frozensets S, T, U of stages 0..n-1, where z_i is the class of the upper
    facet of stage i (facet 2i + 1 of bott_charmap(c)) and z_S the product
    over S; a product that vanishes maps to {}.

    At the origin the covector dual to the lower facet of stage k gives
    1 - x_k = (1 - z_k) Q_k, Q_k the product over i < k of (1 - z_i)^c_ik,
    and the nonface x_k z_k = 0 then gives z_k^2 = z_k R_k with
    R_k = 1 - Q_k^-1. Each z_i lies in the augmentation ideal, so every
    product of n + 1 of them vanishes: Q_k^-1 is a polynomial, and every
    monomial past degree n is dropped. Rewriting the square of the latest
    stage first lowers the exponent of that stage and changes no later one,
    so it ends in squarefree products, with int coefficients throughout."""
    n = c.n
    twists = {(i - 1, j - 1): v for i, j, v in c.triples}

    def unit_power(i, e):
        """(1 - z_i)^e cut at degree n; for e < 0 the binomial series."""
        if e >= 0:
            coeffs = [(-1) ** k * comb(e, k) for k in range(min(e, n) + 1)]
        else:
            coeffs = [comb(k - e - 1, k) for k in range(n + 1)]
        return {tuple(k if v == i else 0 for v in range(n)): a
                for k, a in enumerate(coeffs)}

    def times(p, q):
        out = {}
        for m1, a in p.items():
            for m2, b in q.items():
                m = tuple(map(add, m1, m2))
                if sum(m) <= n:
                    out[m] = out.get(m, 0) + a * b
        return out

    one = (0,) * n
    rest = []  # R_k, one map per stage
    for k in range(n):
        inverse = {one: 1}
        for i in range(k):
            inverse = times(inverse, unit_power(i, -twists.get((i, k), 0)))
        # Q_k^-1 has constant term 1, so R_k has none
        rest.append({m: -a for m, a in inverse.items() if a and m != one})

    def rewrite(work):
        out = {}
        while work:
            m, a = work.popitem()
            k = max((v for v, e in enumerate(m) if e > 1), default=None)
            if k is None:
                out[m] = out.get(m, 0) + a
                continue
            m = m[:k] + (m[k] - 1,) + m[k + 1:]
            for t, b in times({m: a}, rest[k]).items():
                work[t] = work.get(t, 0) + b
        return {frozenset(v for v, e in enumerate(m) if e): a
                for m, a in out.items() if a}

    subsets = [frozenset(s) for r in range(n + 1)
               for s in combinations(range(n), r)]

    def mono(s, t):
        return tuple((v in s) + (v in t) for v in range(n))

    return {(s, t): rewrite({mono(s, t): 1}) for s in subsets for t in subsets}


def swapped_involution_check(pres):
    """Whether swapping every generator y_i, variable i - 1, with its
    inverse, variable n + i - 1, preserves the ideal of the presentation:
    each relation's swap, uncentred, reduces to zero by the Groebner basis
    of the ideal. A swap of a twist v holds monomials of degree about v, so
    this is for small towers and words only."""
    n = pres.n
    gb = buchberger(pres.ideal_gens, pres.order)
    return all(
        gb.normal_form(Poly(g.nvars, {m[n:] + m[:n]: c
                                      for m, c in g.terms.items()})).is_zero
        for g in pres.ideal_gens)


def pairwise_adjacency(p):
    """For each vertex of the incidence table p, the vertices sharing
    dim - 1 of its facets, found by testing every pair of vertices."""
    adj = [[] for _ in range(p.vertex_count)]
    for i, j in combinations(range(p.vertex_count), 2):
        if len(p.vertices[i] & p.vertices[j]) == p.dim - 1:
            adj[i].append(j)
            adj[j].append(i)
    return adj


def cohomology_structure(p, lam, facet_sets):
    """The structure constants of H = Q[v]/(SR + J) in the classes v_F of
    the facet sets F in facet_sets, a basis of H: SR holds the square-free
    monomials of the minimal facet sets that no vertex lies on, found by
    testing every set of at most dim + 1 facets, and J the forms
    sum_j lam_j[r] v_j, one per coordinate r. For each pair (i, j) with
    |F_i| + |F_j| <= dim, the Fractions c with v_{F_i} v_{F_j} =
    sum_k c_k v_{F_k} over the k with |F_k| = |F_i| + |F_j|, as a dict
    {(i, j): {k: c_k}} of the nonzero ones. H is the rational cohomology of
    the quasitoric manifold (Davis-Januszkiewicz, Duke Math. J. 62, 1991).
    Computed by sympy's grevlex Groebner basis of SR + J and one solve per
    product; sympy must be importable."""
    import sympy

    d = p.facet_count
    v = sympy.symbols(f"v0:{d}")
    faces = {s for fs in p.vertices
             for k in range(p.dim + 1) for s in combinations(sorted(fs), k)}
    nonfaces = [s for k in range(2, p.dim + 2) for s in combinations(range(d), k)
                if s not in faces
                and all(t in faces for t in combinations(s, k - 1))]
    gens = [sympy.prod(v[f] for f in s) for s in nonfaces]
    gens += [sum(lam.vectors[j][r] * v[j] for j in range(d)) for r in range(p.dim)]
    gb = sympy.groebner(gens, *v, order="grevlex", domain=sympy.QQ)

    def normal_form(fs):
        rem = gb.reduce(sympy.Mul(*(v[f] for f in fs)))[1]
        return {m: Fraction(int(c.p), int(c.q))
                for m, c in sympy.Poly(rem, *v).terms()}

    out = {}
    for i, fi in enumerate(facet_sets):
        for j, fj in enumerate(facet_sets):
            size = len(fi) + len(fj)
            if size > p.dim:
                continue
            ks = [k for k, fk in enumerate(facet_sets) if len(fk) == size]
            cols = [normal_form(facet_sets[k]) for k in ks]
            target = normal_form(fi + fj)
            monos = sorted(set(target).union(*cols))
            rows = [[col.get(m, Fraction(0)) for col in cols]
                    + [target.get(m, Fraction(0))] for m in monos]
            red, pivots = fraction_rref(rows)
            # the v_{F_k} of one degree are independent, and span the product
            assert pivots == list(range(len(ks))), (i, j)
            out[i, j] = {ks[c]: red[r][-1] for r, c in enumerate(pivots)
                         if red[r][-1]}
    return out
