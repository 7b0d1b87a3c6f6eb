"""Towers of projective line bundles over a cube, and the word construction.

A tower of height n is encoded by its twists, the nonzero entries of a
strictly upper-triangular integer matrix: stage i is the projectivization of
a line bundle twisted by the earlier stages. The ring has one invertible
generator per stage, handled here with an explicit inverse variable and a
product relation instead of localization.
A generalized Cartan matrix plus a word of simple roots produces the same
data, one stage per letter.
"""

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from math import isqrt
from operator import add, sub

from .charmap import CharacteristicMap
from .errors import BudgetExceededError
from .kring import (
    build_presentation,
    compute_basis,
    invert_unit,
    quotient_basis,
    ring_map_check,
)
from .polyring import (
    DEFAULT_BUDGET, RANK_CAP, DegRevLex, Monomial, Poly, _Budget, buchberger)
from .polytope import cube, generic_functional, order_vertices
from .validation import strict_int


@dataclass(frozen=True)
class BottMatrix:
    """A tower of height n by its nonzero twists: triples (i, j, c[i][j])
    with 1 <= i < j <= n, sorted by (i, j). The diagonal is implicitly 1 and
    every other entry 0; twists given as 0 are dropped, so two towers are
    equal exactly when their matrices are. BottMatrix(n) is the untwisted
    tower. Past height 16 the rank 2^n passes RANK_CAP: BudgetExceededError."""

    n: int
    triples: tuple = ()

    def __post_init__(self):
        n = strict_int(self.n)
        if n < 1:
            raise ValueError("tower height must be at least 1")
        if n >= RANK_CAP.bit_length():  # before triples is read; no 2^n formed
            raise BudgetExceededError(
                f"a tower of height {n} has rank 2^{n}, more than {RANK_CAP}")
        twists = {}
        for i, j, value in self.triples:
            i, j = strict_int(i), strict_int(j)
            if not 1 <= i < j <= n:
                raise ValueError(f"entry ({i},{j}) is not strictly above the diagonal")
            if (i, j) in twists:
                raise ValueError(f"entry ({i},{j}) given twice")
            twists[i, j] = strict_int(value)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "triples", tuple(sorted(
            (i, j, v) for (i, j), v in twists.items() if v)))


def bott_charmap(c):
    """The cube labeled for the tower: the lower facet of direction i carries
    the i-th basis vector, the upper one carries minus that vector and minus
    row i of the matrix. Base vertex is the origin.

    The sign on the twist is forced: with it, inverting the unit class of
    each upper facet satisfies the stage relations on the nose, which is what
    the equivalence check certifies. At every vertex the facet vectors, in
    facet order, form a triangular matrix with diagonal entries +-1, so the
    map is always valid; build_presentation still checks it.
    """
    n = c.n
    vecs = []
    for i in range(n):
        lower, upper = [0] * n, [0] * n
        lower[i], upper[i] = 1, -1
        vecs += (lower, upper)
    for i, j, v in c.triples:
        vecs[2 * i - 1][j - 1] = -v
    return cube(n), CharacteristicMap(vecs, base_vertex=0)


@dataclass(frozen=True, eq=False)
class LaurentPresentation:
    """One invertible generator per stage. Variables 0..n-1 are the
    generators, n..2n-1 their formal inverses; the inverse relations
    y_k * y_k_inv - 1 follow from the height n."""

    matrix: BottMatrix
    defining: tuple
    order: DegRevLex

    @property
    def n(self):
        return self.matrix.n

    @property
    def nvars(self):
        return 2 * self.n

    @cached_property
    def ideal_gens(self):
        return self.defining + _inverse_relations(self.n)

    @property
    def var_names(self):
        names = [f"y{i}" for i in range(1, self.n + 1)]
        names += [f"y{i}_inv" for i in range(1, self.n + 1)]
        return tuple(names)

    def y(self, i):
        """Variable index of the i-th generator, 1-based."""
        return i - 1

    def y_inv(self, i):
        """Variable index of the i-th inverse, 1-based."""
        return self.n + i - 1


def bott_presentation(c):
    """Relations of the tower ring: stage i satisfies (y_i - 1)(y_i - P_i) = 0
    with P_i the monomial prod over j < i of y_j^(-c[j][i]), negative powers
    realized through the inverse variables, plus y_i * y_i_inv = 1 for every
    stage."""
    n = c.n
    nv = 2 * n
    # exponents of P_i, one row per stage: the twist c[j][i] = v puts
    # y_j_inv^v in P_i when v > 0 and y_j^-v when v < 0
    powers = [[0] * nv for _ in range(n)]
    for j, i, v in c.triples:
        powers[i - 1][j - 1 + n if v > 0 else j - 1] = abs(v)
    defining = []
    for i, exps in enumerate(powers):
        yi = Poly.variable(nv, i)
        defining.append((yi - 1) * (yi - Poly(nv, {Monomial(exps): 1})))
    return LaurentPresentation(c, tuple(defining), DegRevLex.standard(nv))


def _inverse_relations(n):
    """y_k * y_k_inv - 1 for k = 1..n."""
    return tuple(Poly.variable(2 * n, k) * Poly.variable(2 * n, n + k) - 1
                 for k in range(n))


def _centred_swap(g, n):
    """u * s(g), every y_k * y_k_inv cancelled, for the swap s of each y_k
    with y_k_inv and the Laurent monomial u whose exponent is the sum of the
    lexicographically largest and smallest Laurent exponents a - b of g's
    monomials y_k^a * y_k_inv^b: g itself for a stage relation
    (y_i - 1)(y_i - P_i), as s(g) = y_i^-2 P_i^-1 g, 0 for an inverse one."""
    laurent = [(tuple(map(sub, m[:n], m[n:])), c) for m, c in g.terms.items()]
    exps = [e for e, _ in laurent]
    u = tuple(map(add, max(exps, default=()), min(exps, default=())))
    out = {}
    for e, c in laurent:
        e = tuple(map(sub, u, e))
        m = Monomial._raw([max(x, 0) for x in e] + [max(-x, 0) for x in e])
        out[m] = out.get(m, 0) + c
    return Poly._raw(g.nvars, {m: c for m, c in out.items() if c})


def involution_check(pres, budget=DEFAULT_BUDGET):
    """Swapping every generator with its inverse must preserve the ideal.
    Modulo the inverse relations y_k * y_k_inv - 1 every monomial is a unit
    and equals its cancelled form, so a relation's swap lies in the ideal
    exactly when its centred swap does, and each centred swap must reduce to
    zero. budget caps Buchberger's cancellation steps and, separately, the
    reductions'."""
    gb = buchberger(pres.ideal_gens, pres.order, budget)
    counter = _Budget(budget, "involution check")
    return all(gb.normal_form(_centred_swap(g, pres.n), counter).is_zero
               for g in pres.ideal_gens)


def _stage_products(lp):
    """The 2^n products of distinct generators, smallest sets first. These
    are a module basis of the quotient: each stage relation is a monic
    quadratic over the ring of the earlier stages."""
    n = lp.n
    gens = [lp.y(i) for i in range(1, n + 1)]
    return tuple(Monomial(1 if k in combo else 0 for k in range(2 * n))
                 for size in range(n + 1) for combo in combinations(gens, size))


def bott_equivalence(c, budget=DEFAULT_BUDGET):
    """Run the cube pipeline and the stage-generator relations side by side
    and check they present the same ring: the IsoReport of the map, its
    dst_rank the cube ring's rank and src_rank the stagewise ring's.

    Each generator maps to the inverse of the class 1 - x on the upper facet
    of its direction, each inverse variable to that class itself. ok means
    the map carries the product basis of the stage generators to a module
    basis, unimodularly, and so both ranks are 2^n, the cube's vertex count.
    """
    p, lam = bott_charmap(c)
    pres = build_presentation(p, lam)
    vo = order_vertices(p, generic_functional(c.n))
    basis = compute_basis(pres, vo, budget=budget)
    lp = bott_presentation(c)
    d = p.facet_count
    images = [None] * (2 * c.n)
    for i in range(1, c.n + 1):
        unit = 1 - Poly.variable(d, 2 * (i - 1) + 1)
        images[lp.y_inv(i)] = basis.normal_form(unit)
        images[lp.y(i)] = invert_unit(unit, basis)
    return ring_map_check(lp, tuple(images), basis, _stage_products(lp),
                          budget=budget)


def laurent_rank(pres, budget=DEFAULT_BUDGET):
    """Rank of the quotient behind a stage-generator presentation."""
    _, std = quotient_basis(pres, budget)
    return len(std)


# kind: (its least rank, whether that is its only rank, the entries (i, j, a)
# set on the path 1-2-...-l of single bonds, 0-based, negative from the end)
_CARTAN_KINDS = {
    "A": (1, False, ()),
    "B": (2, False, ((-1, -2, -2),)),
    "C": (2, False, ((-2, -1, -2),)),
    "D": (3, False, ((-2, -1, 0), (-1, -2, 0), (-3, -1, -1), (-1, -3, -1))),
    "F": (4, True, ((2, 1, -2),)),
    "G": (2, True, ((1, 0, -3),)),
}


def cartan_matrix(kind, rank):
    """Built-in generalized Cartan matrices of the classical kinds, plus the
    two exceptional ones of rank 2 and 4, each by _CARTAN_KINDS. A rank whose
    matrix has more than RANK_CAP entries, 317 and up, raises
    BudgetExceededError before any row is built."""
    kind = str(kind).upper()
    l = strict_int(rank)
    if kind not in _CARTAN_KINDS:
        raise ValueError(f"unknown kind {kind!r}")
    least, only, bonds = _CARTAN_KINDS[kind]
    if l < least or only and l != least:
        raise ValueError(f"kind {kind} needs rank {'' if only else '>= '}{least}")
    if l > isqrt(RANK_CAP):  # l * l is never formed
        raise BudgetExceededError(
            f"a Cartan matrix of rank {l} has more than {RANK_CAP} entries")
    m = [[2 if i == j else -1 if abs(i - j) == 1 else 0 for j in range(l)]
         for i in range(l)]
    for i, j, a in bonds:
        m[i][j] = a
    return tuple(map(tuple, m))


@dataclass(frozen=True)
class CartanWord:
    """A generalized Cartan matrix and a word of simple-root letters.

    convention picks which transpose of the matrix realizes the pairing of
    two distinct letters a, b: "row" reads row b column a, "col" reads row a
    column b. Symmetric matrices make the choice invisible.
    """

    cartan: tuple
    word: tuple
    convention: str = "row"

    def __post_init__(self):
        mat = tuple(tuple(map(strict_int, row)) for row in self.cartan)
        l = len(mat)
        if l == 0 or any(len(row) != l for row in mat):
            raise ValueError("a square matrix is required")
        for i in range(l):
            if mat[i][i] != 2:
                raise ValueError("diagonal entries must equal 2")
            if any(mat[i][j] > 0 for j in range(l) if j != i):
                raise ValueError("off-diagonal entries must be nonpositive")
        word = tuple(map(strict_int, self.word))
        if not word:
            raise ValueError("the word must not be empty")
        if any(not 1 <= w <= l for w in word):
            raise ValueError("word letter out of range")
        if self.convention not in ("row", "col"):
            raise ValueError("convention must be 'row' or 'col'")
        object.__setattr__(self, "cartan", mat)
        object.__setattr__(self, "word", word)

    @property
    def rank(self):
        return len(self.cartan)

    def pairing(self, a, b):
        """Pairing of letters a and b, 1-based; equal letters give 2."""
        if self.convention == "row":
            return self.cartan[b - 1][a - 1]
        return self.cartan[a - 1][b - 1]


def cartan_word_matrix(cw):
    """Tower data from a word: the entry for stages i < j is the pairing of
    the i-th and j-th letters."""
    w = cw.word
    n = len(w)
    return BottMatrix(n, ((i + 1, j + 1, cw.pairing(w[i], w[j]))
                          for i in range(n) for j in range(i + 1, n)))


def bott_samelson_presentation(cw):
    """The tower presentation of a word: generator y_i is the class of the
    line bundle O(-M_i) on the subvariety M_i carved out by the first i
    letters."""
    return bott_presentation(cartan_word_matrix(cw))
