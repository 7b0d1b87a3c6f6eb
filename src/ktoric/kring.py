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
from functools import cached_property
from math import lcm

from .charmap import dual_basis, reindex_to_base, validate_charmap
from .errors import (
    InfiniteDimensionError,
    KtoricError,
    NoBaseVertexError,
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

    @classmethod
    def of(cls, seq):
        return cls(tuple(seq))


def _square_free(nvars, facets):
    fs = set(facets)
    mono = Monomial(1 if j in fs else 0 for j in range(nvars))
    return Poly(nvars, {mono: 1})


def _unit_power(d, j, e):
    """(1 - x_j)^e over d variables, term by term: the coefficient of x_j^k
    is (-1)^k C(e, k), and C(e, k+1) = C(e, k) (e - k) / (k + 1)."""
    terms = {}
    c = 1
    for k in range(e + 1):
        terms[Monomial.variable(d, j, k)] = Fraction(c)
        c = -c * (e - k) // (k + 1)
    return Poly._raw(d, terms)


def covector_relation(lam, u, coeffs, base_facets):
    """The relation a covector u imposes: the product of (1 - x_j)^{u(v_j)}
    over facets where u is positive equals the matching product where u is
    negative, scaled by the coefficient monomial of u. KtoricError when
    either product's degree is past the packed-monomial degree limit, checked
    before the powers are formed."""
    d = len(lam.vectors)
    exps = [u(v) for v in lam.vectors]
    within_degree_limit(sum(e for e in exps if e > 0))
    within_degree_limit(-sum(e for e in exps if e < 0))
    pos = Poly.one(d)
    neg = Poly.one(d)
    for j, e in enumerate(exps):
        if e > 0:
            pos = pos * _unit_power(d, j, e)
        elif e < 0:
            neg = neg * _unit_power(d, j, -e)
    r_u = Fraction(1)
    for k, f in enumerate(base_facets):
        r_u *= coeffs.values[k] ** exps[f]
    return pos - r_u * neg


@dataclass(frozen=True, eq=False)
class KRingPresentation:
    polytope: object
    charmap: object
    coeffs: CoefficientSpec
    base_vertex: int
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

    @property
    def integral(self):
        return self.coeffs.integral


def build_presentation(p, lam, coeffs=None, base_vertex=None):
    """Assemble the ideal for a validated polytope and facet assignment.

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
    if base_vertex is None:
        base_vertex = lam.base_vertex
    if base_vertex is None:
        raise NoBaseVertexError(
            "no base vertex on the facet assignment and none supplied")
    if coeffs is None:
        coeffs = CoefficientSpec.ones(p.dim)
    if len(coeffs.values) != p.dim:
        raise ValueError("one coefficient per base facet required")
    lam = reindex_to_base(p, lam, base_vertex)
    base_facets = tuple(sorted(p.vertices[base_vertex]))
    duals = dual_basis(p, lam)
    rest = tuple(j for j in range(p.facet_count) if j not in p.vertices[base_vertex])
    order = DegRevLex(base_facets + rest)
    d = p.facet_count
    nonface_gens = tuple(_square_free(d, nf) for nf in minimal_nonfaces(p))
    covector_gens = tuple(
        covector_relation(lam, u, coeffs, base_facets) for u in duals)
    return KRingPresentation(p, lam, coeffs, base_vertex, base_facets, duals,
                             order, nonface_gens, covector_gens, p_rep, l_rep)


def quotient_basis(pres, budget=DEFAULT_BUDGET):
    """Groebner basis of the ideal and the monomials spanning the quotient."""
    gb = buchberger(pres.ideal_gens, pres.order, budget)
    std = standard_monomials(gb)
    if std is None:
        raise InfiniteDimensionError(
            "quotient is not a finite rank module; relations are missing")
    return gb, std


def _coords(gb, index, p):
    """Sparse coordinates of the normal form of p: (position, coefficient)
    for each standard monomial that occurs, positions read from index."""
    out = []
    for mono, c in gb.reduce(p).terms.items():
        i = index.get(mono)
        if i is None:
            raise KtoricError("normal form left the standard monomial span")
        out.append((i, c))
    return out


_ZERO = Fraction(0)
_ONE = Fraction(1)


def _coord_matrix(gb, index, polys):
    """The matrix, one row per position in index, whose column j holds the
    coordinates of the normal form of polys[j]; see _coords."""
    mat = [[_ZERO] * len(polys) for _ in range(len(index))]
    for j, p in enumerate(polys):
        for i, c in _coords(gb, index, p):
            mat[i][j] = c
    return mat


def _scaled_columns(mat):
    """(den, columns) for a matrix of Fractions: den is the lcm of all its
    denominators, and column t lists (row, den * entry) for its nonzero
    entries, each an int."""
    den = lcm(*(x.denominator for row in mat for x in row))
    cols = [[] for _ in range(len(mat[0]) if mat else 0)]
    for r, row in enumerate(mat):
        for t, x in enumerate(row):
            if x:
                cols[t].append((r, x.numerator * (den // x.denominator)))
    return den, cols


def _accumulate(scaled, coords):
    """The matrix behind scaled (see _scaled_columns) times the sparse
    vector coords, summed in ints over one denominator: (den, entries),
    entries the (row, numerator) of each nonzero sum, sorted by row."""
    den, cols = scaled
    e = lcm(*(c.denominator for _, c in coords))
    sums = {}
    for t, c in coords:
        c = c.numerator * (e // c.denominator)
        for r, x in cols[t]:
            sums[r] = sums.get(r, 0) + x * c
    return den * e, [(r, s) for r, s in sorted(sums.items()) if s]


def _dense(den, entries, m):
    """The m Fractions behind an _accumulate result."""
    out = [_ZERO] * m
    for r, s in entries:
        out[r] = Fraction(s, den)
    return tuple(out)


@dataclass(frozen=True, eq=False)
class BasisResult:
    """Everything computed for one presentation and vertex order: the
    quotient data, the face classes, and how the two express each other.
    structure holds the products b_i b_j = sum_k c b_k of the face classes
    as the tuple of (i, j, k, c) for each nonzero Fraction c, sorted by
    (i, j, k); None when the face classes are not a basis."""

    presentation: object
    groebner: object
    vertex_order: object
    std_monomials: tuple
    basis_monomials: tuple
    basis_facet_sets: tuple
    change: tuple
    change_inverse: tuple
    change_det: object
    rank: int
    structure: tuple
    warnings: tuple
    # _scaled_columns(change_inverse), built once; None with change_inverse
    _scaled_inverse: tuple

    @property
    def m(self):
        return len(self.basis_monomials)

    def normal_form(self, p):
        return self.groebner.reduce(p)

    @cached_property
    def _std_index(self):
        return {mono: i for i, mono in enumerate(self.std_monomials)}

    def basis_coords(self, p):
        if self.change_inverse is None:
            raise RankDeficientError(
                "face classes are not a basis here, coordinates are undefined")
        coords = _coords(self.groebner, self._std_index, p)
        return _dense(*_accumulate(self._scaled_inverse, coords), self.m)


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
        fs = faces[w].facet_set
        basis_facet_sets.append(tuple(sorted(fs)))
        basis_monos.append(Monomial(1 if j in fs else 0 for j in range(d)))

    index = {mono: i for i, mono in enumerate(std)}
    change = tuple(map(tuple, _coord_matrix(
        gb, index, [Poly._raw(d, {mono: _ONE}) for mono in basis_monos])))
    rank = rat_rank(change)
    integral = pres.integral

    warnings = []
    if rank < m:
        if integral:
            raise RankDeficientError(
                f"face classes have rank {rank}, below the vertex count {m}, "
                "with all coefficients 1")
        warnings.append(
            f"face classes have rank {rank} of {m}; no structure constants")

    inv = det = scaled = structure = None
    if rank == m:
        det = rat_det(change)
        inv = tuple(tuple(row) for row in rat_inverse(change))
        scaled = _scaled_columns(inv)
        structure = []
        for i, mi in enumerate(basis_monos):
            for j, mj in enumerate(basis_monos):
                prod = Poly._raw(d, {mi * mj: _ONE})
                den, entries = _accumulate(scaled, _coords(gb, index, prod))
                if integral and any(s % den for _, s in entries):
                    raise KtoricError(
                        "non integer structure constant with all coefficients 1; "
                        f"pair ({i},{j}) gave {_dense(den, entries, m)}")
                structure.extend((i, j, k, Fraction(s, den)) for k, s in entries)
        structure = tuple(structure)

    return BasisResult(pres, gb, vertex_order, std, tuple(basis_monos),
                       tuple(basis_facet_sets), change, inv, det, rank,
                       structure, tuple(warnings), scaled)


def invert_unit(p, basis):
    """Inverse of the class of p in the quotient, by solving one linear
    system over the standard monomials."""
    gb = basis.groebner
    std = basis.std_monomials
    q = len(std)
    if q == 0:
        raise NotAUnitError("the quotient ring is zero")
    d = gb.nvars
    index = basis._std_index
    mat = _coord_matrix(gb, index, [p * Poly(d, {mono: 1}) for mono in std])
    target = index.get(Monomial.one(d))
    if target is None:
        raise NotAUnitError("1 is not a standard monomial here")
    rhs = [Fraction(1) if i == target else Fraction(0) for i in range(q)]
    sol = rat_solve(mat, rhs)
    if sol is None:
        raise NotAUnitError("element is not invertible in the quotient")
    return Poly(d, {std[j]: sol[j] for j in range(q)})


def evaluate_in_quotient(p, images, gb):
    """Substitute images for the variables of p and reduce. Powers of each
    image are cached and reduced as they grow, which keeps intermediate
    results inside the quotient's monomial span."""
    images = list(images)
    if len(images) != p.nvars:
        raise ValueError("one image per source variable required")
    nd = images[0].nvars if images else gb.nvars
    if any(im.nvars != nd for im in images):
        raise ValueError("images live over different variable sets")
    powers = [[Poly.one(nd), gb.reduce(im)] for im in images]

    def power(i, e):
        col = powers[i]
        while len(col) <= e:
            col.append(gb.reduce(col[-1] * col[1]))
        return col[e]

    total = Poly.zero(nd)
    for mono, coeff in p.terms.items():
        val = Poly.constant(nd, coeff)
        for i, e in mono.exponents:
            val = gb.reduce(val * power(i, e))
        total = total + val
    return gb.reduce(total)


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
    finer lattice.
    """
    images = tuple(images)
    gb = dst_basis.groebner
    failed = []
    for idx, g in enumerate(src.ideal_gens):
        if not evaluate_in_quotient(g, images, gb).is_zero:
            failed.append(idx)
    src_rank = len(quotient_basis(src, budget)[1])
    m = dst_basis.m
    spans = False
    det = None
    unimod = None
    if dst_basis.change_inverse is not None and len(src_basis) == m:
        cols = []
        for mono in src_basis:
            img = evaluate_in_quotient(Poly(src.nvars, {mono: 1}), images, gb)
            cols.append(dst_basis.basis_coords(img))
        mat = [[cols[j][i] for j in range(m)] for i in range(m)]
        det = rat_det(mat)
        spans = det != 0
        integer_entries = all(x.denominator == 1 for row in mat for x in row)
        unimod = spans and integer_entries and abs(det) == 1
    integral = dst_basis.presentation.integral
    return IsoReport(not failed, tuple(failed), src_rank, dst_basis.rank,
                     spans, det, integral, unimod)
