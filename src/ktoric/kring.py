"""The quotient ring attached to a labeled simple polytope.

One generator per facet. The ideal combines the monomials of facet sets with
empty intersection and, for each covector dual to the facet vectors at a
chosen base vertex, a relation between products of the unit classes 1 - x_j.
Classes of the faces ascending from each vertex give a distinguished module
basis; when all the coefficients are 1 it really is a basis over the
integers, and the structure constants come out integral.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import prod

from .charmap import dual_basis, validate_charmap
from .errors import (
    InfiniteDimensionError,
    KtoricError,
    NotAUnitError,
    RankDeficientError,
    ValidationFailedError,
)
from .intlinalg import rat_det, rat_inverse, rat_rank, rat_solve
from .polyring import (
    DEFAULT_BUDGET,
    DegRevLex,
    Monomial,
    Poly,
    _combine,
    _packed,
    _unpacked,
    buchberger,
    standard_monomials,
    within_degree_limit,
)
from .polytope import ascending_faces, minimal_nonfaces, validate_polytope
from .validation import strict_rational


@dataclass(frozen=True)
class CoefficientSpec:
    """One nonzero rational per base facet. All ones is the integral case;
    anything else is a formal specialization and weakens what can be
    promised about ranks."""

    values: tuple

    def __post_init__(self):
        vals = tuple(map(strict_rational, self.values))
        if not vals:
            raise ValueError("at least one coefficient required")
        if any(v == 0 for v in vals):
            raise ValueError("coefficients must be nonzero")
        object.__setattr__(self, "values", vals)

    @property
    def integral(self):
        return all(v == 1 for v in self.values)

    @classmethod
    def ones(cls, n):
        return cls((Fraction(1),) * n)


def _square_free(nvars, facets):
    fs = set(facets)
    mono = Monomial(1 if j in fs else 0 for j in range(nvars))
    return Poly(nvars, {mono: 1})


def covector_relation(lam, u, coeffs, base_facets, nonfaces):
    """The relation a covector u imposes: the product of (1 - x_j)^{u(v_j)}
    over facets where u is positive equals the matching product where u is
    negative, scaled by the coefficient monomial of u. Each side is expanded
    modulo the face ideal: no term whose support contains one of nonfaces,
    the minimal nonfaces as facet tuples, is formed. KtoricError when either
    product's degree is past the packed-monomial degree limit, checked
    before the powers are formed."""
    d = len(lam.vectors)
    exps = [u(v) for v in lam.vectors]
    within_degree_limit(sum(e for e in exps if e > 0))
    within_degree_limit(-sum(e for e in exps if e < 0))
    masks = [sum(1 << f for f in nf) for nf in nonfaces]
    r_u = prod(coeffs.values[k] ** exps[f] for k, f in enumerate(base_facets))
    rel = {}
    for sign, scale in ((1, 1), (-1, -r_u)):
        terms = [(0, (0,) * d, scale)]  # (support bit mask, exponents, coefficient)
        for j, e in enumerate(exps):
            e *= sign
            if e > 0:
                free = [(s | 1 << j, m, c) for s, m, c in terms
                        if not any(nf & (s | 1 << j) == nf for nf in masks)]
                b = 1
                for k in range(1, e + 1):
                    b = -b * (e - k + 1) // k  # (-1)^k C(e, k)
                    terms += [(s, m[:j] + (k,) + m[j + 1:], c * b) for s, m, c in free]
        for _, m, c in terms:
            rel[m] = rel.get(m, 0) + c
    return Poly._raw(d, {Monomial._raw(m): Fraction(c) for m, c in rel.items() if c})


@dataclass(frozen=True, eq=False)
class KRingPresentation:
    polytope: object
    charmap: object
    coeffs: CoefficientSpec
    base_facets: tuple
    dual_covectors: tuple
    order: DegRevLex
    nonface_gens: tuple
    covector_gens: tuple
    # the validation reports build_presentation checked, kept for the report
    polytope_report: object
    charmap_report: object

    @property
    def nvars(self):
        return self.polytope.facet_count

    @property
    def ideal_gens(self):
        return self.nonface_gens + self.covector_gens

    @property
    def var_names(self):
        return tuple(f"x{j}" for j in range(self.polytope.facet_count))


def build_presentation(p, lam, coeffs=None):
    """Assemble the ideal for a validated polytope and facet assignment, at
    the assignment's base vertex (NoBaseVertexError when it has none).

    Variables are ordered so the base vertex facets dominate; relations are
    the square-free monomials of the minimal empty-intersection facet sets
    followed by one relation per dual covector of the base vertex.
    """
    p_rep = validate_polytope(p)
    if not p_rep.ok:
        raise ValidationFailedError("polytope failed validation:\n" + str(p_rep))
    l_rep = validate_charmap(p, lam)
    if not l_rep.ok:
        raise ValidationFailedError("facet vectors failed validation:\n" + str(l_rep))
    duals = dual_basis(p, lam)
    if coeffs is None:
        coeffs = CoefficientSpec.ones(p.dim)
    if len(coeffs.values) != p.dim:
        raise ValueError("one coefficient per base facet required")
    base = p.vertices[lam.base_vertex]
    base_facets = tuple(sorted(base))
    rest = tuple(j for j in range(p.facet_count) if j not in base)
    order = DegRevLex(base_facets + rest)
    nonfaces = minimal_nonfaces(p)
    nonface_gens = tuple(_square_free(p.facet_count, nf) for nf in nonfaces)
    covector_gens = tuple(
        covector_relation(lam, u, coeffs, base_facets, nonfaces) for u in duals)
    return KRingPresentation(p, lam, coeffs, base_facets, duals,
                             order, nonface_gens, covector_gens, p_rep, l_rep)


def quotient_basis(pres, budget=DEFAULT_BUDGET):
    """Groebner basis of the ideal and the monomials spanning the quotient."""
    gb = buchberger(pres.ideal_gens, pres.order, budget)
    std = standard_monomials(gb)
    if std is None:
        raise InfiniteDimensionError(
            "quotient is not a finite rank module; relations are missing")
    return gb, std


def _product(x, y, order):
    """The product of x and y in the engine's form; KtoricError, before any
    monomial is formed, when the sum of their largest degrees is past
    DEGREE_LIMIT."""
    (dx, tx), (dy, ty) = x, y
    within_degree_limit(max(map(order.degree, tx), default=0)
                        + max(map(order.degree, ty), default=0))
    acc = {}
    for m, a in tx.items():
        for n, b in ty.items():
            acc[m + n] = acc.get(m + n, 0) + a * b
    return dx * dy, {m: c for m, c in acc.items() if c}


def _matrix(columns, index):
    """The matrix whose column j is the j-th normal form (den, {key: a}) of
    columns, from GroebnerBasis.reduce or _accumulate, as intlinalg takes
    it: one row per key of index, row index[key] holding (j, a / den), an
    int where den divides a and a Fraction elsewhere, each row sorted by
    column. KtoricError for a key that index lacks."""
    rows = [[] for _ in index]
    for j, (den, terms) in enumerate(columns):
        for key, a in terms.items():
            try:
                row = rows[index[key]]
            except LookupError:
                raise KtoricError("normal form left the standard monomial span") from None
            row.append((j, Fraction(a, den) if a % den else a // den))
    return rows


def _accumulate(inverse, nf):
    """The face-class coordinates of a normal form nf = (den, terms) from
    GroebnerBasis.reduce: the matrix behind inverse (see BasisResult) times
    nf's terms, summed by _combine, as (den, {row: numerator}) of the
    nonzero sums. KtoricError for a monomial that inverse lacks."""
    e, terms = nf
    try:
        den, sums = _combine(terms.items(), inverse)
    except KeyError:
        raise KtoricError("normal form left the standard monomial span") from None
    return den * e, sums


def _dense(den, sums, m):
    """The m Fractions behind an _accumulate result."""
    out = [Fraction(0)] * m
    for r, s in sums.items():
        out[r] = Fraction(s, den)
    return tuple(out)


@dataclass(frozen=True, eq=False)
class BasisResult:
    """Everything computed for one presentation and vertex order: the
    quotient data, the face classes, and how the two express each other.
    change_inverse writes the standard monomials in the face classes: keyed
    by each one's packed int, the engine's table entry (den, {row:
    numerator}) of its column's nonzero entries, every column over the one
    denominator of the inverse. structure holds the products b_i b_j = sum_k
    c b_k of the face classes as the tuple of (i, j, k, c) for each nonzero
    Fraction c, sorted by (i, j, k). Both are None when the face classes are
    not a basis."""

    presentation: object
    groebner: object
    vertex_order: object
    std_monomials: tuple
    basis_monomials: tuple
    basis_facet_sets: tuple
    change_inverse: dict
    change_det: object
    rank: int
    structure: tuple
    warnings: tuple

    @property
    def m(self):
        return len(self.basis_monomials)

    def normal_form(self, p):
        return self.groebner.normal_form(p)

    def basis_coords(self, p):
        """The m Fractions that write the Poly p in the face classes."""
        x = _packed(p, self.groebner.order)
        if self.change_inverse is None:
            raise RankDeficientError(
                "face classes are not a basis here, coordinates are undefined")
        return _dense(*_accumulate(self.change_inverse, self.groebner.reduce(x)),
                      self.m)


def compute_basis(pres, vertex_order, budget=DEFAULT_BUDGET):
    """Quotient data plus the ascending-face module basis.

    The face classes must span; in the integral case they must be a basis,
    so a rank short of the vertex count raises. With other coefficients the
    shortfall is only recorded as a warning.
    """
    p = pres.polytope
    gb, std = quotient_basis(pres, budget)
    m = p.vertex_count
    q = len(std)
    if q > m:
        raise KtoricError(
            f"quotient rank {q} exceeds the vertex count {m}; "
            "face classes cannot span")
    faces = ascending_faces(p, vertex_order)
    d = p.facet_count
    basis_facet_sets = []
    basis_monos = []
    for w in vertex_order.order:
        fs = faces[w]
        basis_facet_sets.append(tuple(sorted(fs)))
        basis_monos.append(Monomial(1 if j in fs else 0 for j in range(d)))

    pack = gb.order.pack
    index = {pack(mono): i for i, mono in enumerate(std)}
    packed = [pack(mono) for mono in basis_monos]
    reduce = gb.reduce
    change = _matrix((reduce((1, {b: 1})) for b in packed), index)
    rank = rat_rank(change)
    integral = pres.coeffs.integral

    warnings = []
    if rank < m:
        if integral:
            raise RankDeficientError(
                f"face classes have rank {rank}, below the vertex count {m}, "
                "with all coefficients 1")
        warnings.append(
            f"face classes have rank {rank} of {m}; no structure constants")

    inv = det = structure = None
    if rank == m:
        det = rat_det(change)
        den, rows = rat_inverse(change)
        cols = [{} for _ in range(m)]
        for r, row in enumerate(rows):
            for t, x in row.items():
                cols[t][r] = x
        # index, keyed by packed standard monomial, iterates in column order
        inv = {s: (den, col) for s, col in zip(index, cols)}
        structure = []
        within_degree_limit(2 * max(map(gb.order.degree, packed)))
        seen = {}  # the constants (k, c) of each nonzero product, by monomial
        for i, bi in enumerate(packed):
            for j, bj in enumerate(packed):
                b = bi + bj
                nf = reduce((1, {b: 1}))
                if not nf[1]:
                    continue  # b_i b_j is 0, as most are
                if b not in seen:
                    den, sums = _accumulate(inv, nf)
                    if integral and any(s % den for s in sums.values()):
                        raise KtoricError(
                            "non integer structure constant with all coefficients 1; "
                            f"pair ({i},{j}) gave {_dense(den, sums, m)}")
                    seen[b] = [(k, Fraction(s, den)) for k, s in sorted(sums.items())]
                structure.extend((i, j, k, c) for k, c in seen[b])
        structure = tuple(structure)

    return BasisResult(pres, gb, vertex_order, std, tuple(basis_monos),
                       tuple(basis_facet_sets), inv, det, rank,
                       structure, tuple(warnings))


def invert_unit(p, basis):
    """Inverse of the class of p in the quotient, by solving one linear
    system over the standard monomials."""
    gb, order = basis.groebner, basis.groebner.order
    index = {order.pack(mono): i for i, mono in enumerate(basis.std_monomials)}
    q = len(index)
    if q == 0:
        raise NotAUnitError("the quotient ring is zero")
    u = _packed(p, order)
    # index, keyed by packed standard monomial, iterates in their order
    mat = _matrix((gb.reduce(_product(u, (1, {s: 1}), order)) for s in index),
                  index)
    target = index.get(order.pack(Monomial.one(order.nvars)))
    if target is None:
        raise NotAUnitError("1 is not a standard monomial here")
    sol = rat_solve(mat, [int(i == target) for i in range(q)])
    if sol is None:
        raise NotAUnitError("element is not invertible in the quotient")
    den, x = sol
    return _unpacked(den, {s: x[i] for s, i in index.items() if i in x}, order)


def evaluate_in_quotient(p, images, gb):
    """Substitute images for the variables of p and reduce. The images, each
    value and the result are in the engine's form (see GroebnerBasis.reduce).
    Powers of each image are cached and reduced as they grow, which keeps
    intermediate results inside the quotient's monomial span. ValueError
    unless there is one image per variable of p."""
    if len(images) != p.nvars:
        raise ValueError("one image per source variable required")
    order = gb.order
    one = order.pack(Monomial.one(order.nvars))
    powers = [[(1, {one: 1}), gb.reduce(im)] for im in images]

    def power(i, e):
        col = powers[i]
        while len(col) <= e:
            col.append(gb.reduce(_product(col[-1], col[1], order)))
        return col[e]

    vals = []
    for mono, coeff in p.terms.items():
        val = (coeff.denominator, {one: coeff.numerator})
        for i, e in mono.exponents:
            val = gb.reduce(_product(val, power(i, e), order))
        vals.append(val)
    # the sum of the values: _combine with the list vals as its table
    return gb.reduce(_combine([(i, 1) for i in range(len(vals))], vals))


@dataclass(frozen=True, eq=False)
class IsoReport:
    """Outcome of checking that generator images define an isomorphism."""

    relations_zero: bool
    failed_relations: tuple
    src_rank: int
    dst_rank: int
    spans: bool
    change_det: object
    integral: bool
    unimodular: object

    @property
    def ok(self):
        if not (self.relations_zero and self.spans
                and self.src_rank == self.dst_rank):
            return False
        if self.integral:
            return bool(self.unimodular)
        return True


def ring_map_check(src, images, dst_basis, src_basis,
                   budget=DEFAULT_BUDGET):
    """Does sending the i-th source variable to images[i] give an
    isomorphism onto the quotient behind dst_basis?

    Every source relation must land on zero, and the images of src_basis, a
    sequence of monomials that is a module basis of the source, must form a
    basis on the target side; with all coefficients 1 the transition matrix
    must also be unimodular. The source's standard monomials are not always
    such a basis: those of a rational Groebner basis can span a strictly
    finer lattice. The images, one per source variable, are Polys over the
    target's variables, packed once here; ValueError otherwise.
    """
    gb = dst_basis.groebner
    images = [_packed(im, gb.order) for im in images]
    failed = [idx for idx, g in enumerate(src.ideal_gens)
              if evaluate_in_quotient(g, images, gb)[1]]
    src_rank = len(quotient_basis(src, budget)[1])
    m = dst_basis.m
    spans = False
    det = None
    unimod = None
    if dst_basis.change_inverse is not None and len(src_basis) == m:
        inv = dst_basis.change_inverse
        values = (evaluate_in_quotient(Poly(src.nvars, {mono: 1}), images, gb)
                  for mono in src_basis)
        rows = _matrix((_accumulate(inv, gb.reduce(v)) for v in values), range(m))
        det = rat_det(rows)
        spans = det != 0
        integer_entries = all(type(x) is int for row in rows for _, x in row)
        unimod = spans and integer_entries and abs(det) == 1
    integral = dst_basis.presentation.coeffs.integral
    return IsoReport(not failed, tuple(failed), src_rank, dst_basis.rank,
                     spans, det, integral, unimod)
