"""Facet vector assignments and the covectors they determine."""

from dataclasses import dataclass
from math import gcd

from .errors import NoBaseVertexError
from .intlinalg import det_int, rat_inverse
from .validation import CheckResult, ValidationReport, strict_int


@dataclass(frozen=True)
class CharacteristicMap:
    """One integer vector per facet, plus an optional preferred vertex whose
    facet vectors should form a lattice basis."""

    vectors: tuple
    base_vertex: int = None

    def __post_init__(self):
        vecs = tuple(tuple(map(strict_int, v)) for v in self.vectors)
        if not vecs:
            raise ValueError("at least one facet vector required")
        arity = len(vecs[0])
        if any(len(v) != arity for v in vecs):
            raise ValueError("all facet vectors must have the same length")
        object.__setattr__(self, "vectors", vecs)
        if self.base_vertex is not None:
            object.__setattr__(self, "base_vertex", strict_int(self.base_vertex))

    @property
    def ambient_dim(self):
        return len(self.vectors[0])


class Covector(tuple):
    """An integer linear functional on the target lattice."""

    __slots__ = ()

    def __new__(cls, entries):
        return super().__new__(cls, map(strict_int, entries))

    def __call__(self, vector):
        if len(vector) != len(self):
            raise ValueError("covector and vector lengths differ")
        return sum(a * b for a, b in zip(self, vector))


def _vertex_matrix(p, lam, vertex):
    """Columns are the facet vectors of the vertex, facets in ascending order."""
    facets = sorted(p.vertices[vertex])
    return [[lam.vectors[f][i] for f in facets] for i in range(p.dim)]


def validate_charmap(p, lam):
    """Check that the vectors are primitive and that every vertex's facet
    vectors form a basis of the lattice (determinant of absolute value 1)."""
    if len(lam.vectors) != p.facet_count:
        raise ValueError("one vector per facet required")
    if lam.ambient_dim != p.dim:
        raise ValueError("vector length must equal the polytope dimension")
    if lam.base_vertex is not None and not 0 <= lam.base_vertex < p.vertex_count:
        raise ValueError("base vertex index out of range")

    checks = []
    bad = [f for f, v in enumerate(lam.vectors)
           if gcd(*(abs(x) for x in v)) != 1]
    checks.append(CheckResult(
        "primitive_vectors", not bad,
        f"facet vectors with a common divisor: {bad}" if bad else ""))

    # a vertex on other than dim facets has no square matrix, so no basis
    nonunit = [w for w, fs in enumerate(p.vertices) if len(fs) != p.dim
               or abs(det_int(_vertex_matrix(p, lam, w))) != 1]
    checks.append(CheckResult(
        "vertex_determinants", not nonunit,
        f"vertices whose facet vectors are not a basis: {nonunit}" if nonunit else ""))

    return ValidationReport(tuple(checks))


def dual_basis(p, lam):
    """Covectors dual to the facet vectors at the base vertex: the i-th one
    sends the i-th base facet vector to 1 and the others to 0. They are the
    rows of the inverse of the matrix whose columns are those vectors."""
    if lam.base_vertex is None:
        raise NoBaseVertexError("characteristic map has no base vertex")
    mat = _vertex_matrix(p, lam, lam.base_vertex)
    inv = rat_inverse([[(c, x) for c, x in enumerate(row) if x] for row in mat])
    if inv is None:
        raise ValueError("base vertex facet vectors are not invertible")
    den, rows = inv
    if den != 1:
        raise ValueError("base vertex facet vectors are not a lattice basis")
    return tuple(Covector(row.get(c, 0) for c in range(p.dim)) for row in rows)


def reindex_to_base(p, lam, vertex):
    """The same map with a different preferred vertex."""
    if not 0 <= vertex < p.vertex_count:
        raise ValueError("base vertex index out of range")
    return CharacteristicMap(lam.vectors, vertex)


def simplex_charmap(n):
    """The standard assignment on the n-simplex: facet i >= 1 gets the i-th
    basis vector, facet 0 gets minus their sum; preferred vertex 0."""
    vecs = [tuple(-1 for _ in range(n))]
    for i in range(n):
        vecs.append(tuple(1 if j == i else 0 for j in range(n)))
    return CharacteristicMap(tuple(vecs), 0)


def product_charmap(p, lam_p, q, lam_q):
    """Block-diagonal assignment on a product polytope."""
    np_, nq = p.dim, q.dim
    vecs = [tuple(v) + (0,) * nq for v in lam_p.vectors]
    vecs += [(0,) * np_ + tuple(v) for v in lam_q.vectors]
    base = None
    if lam_p.base_vertex is not None and lam_q.base_vertex is not None:
        base = lam_p.base_vertex * q.vertex_count + lam_q.base_vertex
    return CharacteristicMap(tuple(vecs), base)
