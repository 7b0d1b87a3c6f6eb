"""Towers of projective line bundles over a cube, and the word construction.

A tower of height n is encoded by a strictly upper-triangular integer matrix:
stage i is the projectivization of a line bundle twisted by the earlier
stages. The ring has one invertible generator per stage, handled here with an
explicit inverse variable and a product relation instead of localization.
A generalized Cartan matrix plus a word of simple roots produces the same
data, one stage per letter.
"""

from dataclasses import dataclass
from itertools import combinations

from .charmap import CharacteristicMap
from .kring import (
    build_presentation,
    compute_basis,
    invert_unit,
    quotient_basis,
    ring_map_check,
)
from .polyring import DEFAULT_BUDGET, DegRevLex, Monomial, Poly, buchberger
from .polytope import cube, order_vertices
from .validation import strict_int


@dataclass(frozen=True)
class BottMatrix:
    """Twist data c[i][j] for 1 <= i < j <= n, stored as ragged rows; the
    diagonal is implicitly 1 and everything below it is 0."""

    n: int
    rows: tuple

    def __post_init__(self):
        n = strict_int(self.n)
        if n < 1:
            raise ValueError("tower height must be at least 1")
        rows = tuple(tuple(map(strict_int, row)) for row in self.rows)
        if len(rows) != n - 1:
            raise ValueError("one row per stage except the last required")
        for k, row in enumerate(rows):
            if len(row) != n - 1 - k:
                raise ValueError(f"row {k + 1} must hold {n - 1 - k} entries")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "rows", rows)

    @classmethod
    def zero(cls, n):
        return cls(n, tuple(tuple(0 for _ in range(n - 1 - k))
                            for k in range(n - 1)))

    @classmethod
    def from_triples(cls, n, triples):
        n = strict_int(n)
        rows = [[0] * (n - 1 - k) for k in range(n - 1)]
        seen = set()
        for i, j, value in triples:
            i, j = strict_int(i), strict_int(j)
            if not 1 <= i < j <= n:
                raise ValueError(f"entry ({i},{j}) is not strictly above the diagonal")
            if (i, j) in seen:
                raise ValueError(f"entry ({i},{j}) given twice")
            seen.add((i, j))
            rows[i - 1][j - i - 1] = strict_int(value)
        return cls(n, tuple(tuple(r) for r in rows))

    def entry(self, i, j):
        """c[i][j] for 1 <= i < j <= n."""
        if not 1 <= i < j <= self.n:
            raise ValueError("need 1 <= i < j <= n")
        return self.rows[i - 1][j - i - 1]

    def triples(self):
        """Nonzero entries as (i, j, value), row by row."""
        out = []
        for i in range(1, self.n + 1):
            for j in range(i + 1, self.n + 1):
                v = self.entry(i, j)
                if v:
                    out.append((i, j, v))
        return tuple(out)


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
    p = cube(n)
    vecs = []
    for i in range(1, n + 1):
        lower = tuple(1 if k == i - 1 else 0 for k in range(n))
        upper = [0] * n
        upper[i - 1] = -1
        for j in range(i + 1, n + 1):
            upper[j - 1] = -c.entry(i, j)
        vecs.append(lower)
        vecs.append(tuple(upper))
    return p, CharacteristicMap(tuple(vecs), base_vertex=0)


@dataclass(frozen=True, eq=False)
class LaurentPresentation:
    """One invertible generator per stage. Variables 0..n-1 are the
    generators, n..2n-1 their formal inverses."""

    n: int
    matrix: BottMatrix
    defining: tuple
    inverse_gens: tuple
    order: DegRevLex
    notes: tuple = ()

    @property
    def nvars(self):
        return 2 * self.n

    @property
    def ideal_gens(self):
        return self.defining + self.inverse_gens

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


def bott_presentation(c, notes=()):
    """Relations of the tower ring: stage i satisfies
    (y_i - 1)(y_i - prod of earlier generators to the powers -c[j][i]) = 0,
    negative powers realized through the inverse variables, plus
    y_i * y_i_inv = 1 for every stage."""
    n = c.n
    nv = 2 * n
    defining = []
    for i in range(1, n + 1):
        yi = Poly.variable(nv, i - 1)
        prod = Poly.one(nv)
        for j in range(1, i):
            cji = c.entry(j, i)
            if cji > 0:
                prod = prod * Poly.variable(nv, n + j - 1) ** cji
            elif cji < 0:
                prod = prod * Poly.variable(nv, j - 1) ** (-cji)
        defining.append((yi - 1) * (yi - prod))
    inverse_gens = tuple(
        Poly.variable(nv, i - 1) * Poly.variable(nv, n + i - 1) - 1
        for i in range(1, n + 1))
    return LaurentPresentation(n, c, tuple(defining), inverse_gens,
                               DegRevLex.standard(nv), tuple(notes))


def involution_check(pres, budget=DEFAULT_BUDGET):
    """Swapping every generator with its inverse must preserve the ideal:
    each relation, after the swap, reduces to zero."""
    n = pres.n
    gb = buchberger(pres.ideal_gens, pres.order, budget)
    # y_i, variable i - 1, and its inverse, variable n + i - 1, trade places
    swapped = (Poly(g.nvars, {m[n:] + m[:n]: c for m, c in g.terms.items()})
               for g in pres.ideal_gens)
    return all(gb.reduce(s).is_zero for s in swapped)


@dataclass(frozen=True, eq=False)
class EquivalenceReport:
    """Cross-check of the two presentations of one tower."""

    n: int
    expected_rank: int
    polytope_rank: int
    laurent_rank: int
    iso: object

    @property
    def ok(self):
        return (self.polytope_rank == self.expected_rank
                and self.laurent_rank == self.expected_rank
                and self.iso.ok)


def _stage_products(lp):
    """The 2^n products of distinct generators, smallest sets first. These
    are a module basis of the quotient: each stage relation is a monic
    quadratic over the ring of the earlier stages."""
    n = lp.n
    out = []
    for size in range(n + 1):
        for combo in combinations(range(1, n + 1), size):
            exps = [0] * (2 * n)
            for i in combo:
                exps[lp.y(i)] = 1
            out.append(Monomial(tuple(exps)))
    return tuple(out)


def bott_equivalence(c, budget=DEFAULT_BUDGET):
    """Run the cube pipeline and the stage-generator relations side by side
    and check they present the same ring.

    Each generator maps to the inverse of the class 1 - x on the upper facet
    of its direction, each inverse variable to that class itself. Both ranks
    must equal 2^n and the map must carry the product basis of the stage
    generators to a module basis, unimodularly.
    """
    p, lam = bott_charmap(c)
    pres = build_presentation(p, lam)
    functional = tuple(1 << k for k in range(c.n))
    vo = order_vertices(p, functional)
    basis = compute_basis(pres, vo, budget=budget)
    lp = bott_presentation(c)
    d = p.facet_count
    images = [None] * (2 * c.n)
    for i in range(1, c.n + 1):
        unit = 1 - Poly.variable(d, 2 * (i - 1) + 1)
        images[lp.y_inv(i)] = basis.normal_form(unit)
        images[lp.y(i)] = invert_unit(unit, basis)
    iso = ring_map_check(lp, tuple(images), basis, _stage_products(lp),
                         budget=budget)
    return EquivalenceReport(c.n, 2 ** c.n, basis.rank, iso.src_rank, iso)


def laurent_rank(pres, budget=DEFAULT_BUDGET):
    """Rank of the quotient behind a stage-generator presentation."""
    _, std = quotient_basis(pres, budget)
    return len(std)


def cartan_matrix(kind, rank):
    """Built-in generalized Cartan matrices of the classical kinds, plus the
    two exceptional ones of rank 2 and 4."""
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
    n = len(cw.word)
    rows = []
    for i in range(n - 1):
        rows.append(tuple(cw.pairing(cw.word[i], cw.word[j])
                          for j in range(i + 1, n)))
    return BottMatrix(n, tuple(rows))


def bott_samelson_presentation(cw):
    """The tower presentation of a word, with a note pinning down what each
    generator is: the class of the line bundle O(-M_i) on the subvariety
    M_i carved out by the first i letters."""
    c = cartan_word_matrix(cw)
    notes = tuple(
        f"y{i} is the class of the line bundle O(-M{i}) of the stage-{i} subvariety"
        for i in range(1, c.n + 1))
    return bott_presentation(c, notes)
