"""Facet vector assignments: validation, duals, products."""

import random
from fractions import Fraction

import pytest

from ktoric import (
    CharacteristicMap,
    Covector,
    NoBaseVertexError,
    SimplePolytope,
    cube,
    dual_basis,
    product,
    product_charmap,
    reindex_to_base,
    simplex,
    simplex_charmap,
    validate_charmap,
)
from ktoric.intlinalg import det_int


def test_covector_is_a_functional():
    u = Covector((2, -1))
    assert u((3, 4)) == 2
    assert u((0, 0)) == 0
    assert tuple(u) == (2, -1)


def test_simplex_charmap_valid():
    for n in range(1, 5):
        rep = validate_charmap(simplex(n), simplex_charmap(n))
        assert rep.ok, str(rep)


def test_repeated_vector_on_adjacent_facets_fails():
    # facets 0 and 2 meet at vertices 0 and 1; giving them the same vector
    # kills exactly those two determinants
    lam = CharacteristicMap(((1, 0), (-1, 0), (1, 0), (0, -1)), base_vertex=2)
    rep = validate_charmap(cube(2), lam)
    assert not rep.ok
    bad = [c for c in rep.failures() if c.name == "vertex_determinants"]
    assert bad and "0" in bad[0].detail and "1" in bad[0].detail


def test_vertex_off_dim_facets_fails_determinants():
    # vertex 0 lies on three facets of a 2-polytope: its three vectors are
    # no lattice basis, and no square matrix to take a determinant of
    p = SimplePolytope(2, 4, ({0, 1, 2}, {1, 2}, {2, 3}, {3, 0}))
    lam = CharacteristicMap(((1, 0), (0, 1), (-1, 0), (0, -1)), base_vertex=1)
    rep = validate_charmap(p, lam)
    assert [c.name for c in rep.failures()] == ["vertex_determinants"]
    assert rep.failures()[0].detail == (
        "vertices whose facet vectors are not a basis: [0]")


def test_repeated_vector_on_opposite_facets_is_fine():
    # opposite facets never share a vertex, so no determinant sees the repeat
    lam = CharacteristicMap(((1, 0), (1, 0), (0, 1), (0, 1)), base_vertex=0)
    assert validate_charmap(cube(2), lam).ok


def test_primitive_but_nonunimodular_fails():
    lam = CharacteristicMap(((-2, -1), (1, 0), (0, 1)), base_vertex=0)
    rep = validate_charmap(simplex(2), lam)
    failed = {c.name for c in rep.failures()}
    assert failed == {"vertex_determinants"}


def test_nonprimitive_vector_flagged():
    lam = CharacteristicMap(((2, 0), (0, 1), (-1, -1)), base_vertex=0)
    rep = validate_charmap(simplex(2), lam)
    assert "primitive_vectors" in {c.name for c in rep.failures()}


def test_shape_mismatches_raise():
    with pytest.raises(ValueError):
        validate_charmap(simplex(2), CharacteristicMap(((1, 0), (0, 1)), 0))
    with pytest.raises(ValueError):
        validate_charmap(
            simplex(2),
            CharacteristicMap(((1, 0, 0), (0, 1, 0), (-1, -1, 0)), 0))


def test_validation_invariant_under_unimodular_change():
    lam = simplex_charmap(3)
    u = [[1, 1, 0], [0, 1, 0], [0, 1, 1]]
    assert det_int(u) == 1
    moved = CharacteristicMap(
        tuple(tuple(sum(u[i][k] * v[k] for k in range(3)) for i in range(3))
              for v in lam.vectors),
        base_vertex=lam.base_vertex)
    assert validate_charmap(simplex(3), moved).ok


def test_dual_basis_identity_case():
    assert dual_basis(simplex(2), simplex_charmap(2)) == ((1, 0), (0, 1))


def test_dual_basis_square_example():
    lam = CharacteristicMap(((1, 1), (-1, -1), (0, 1), (0, -1)), base_vertex=0)
    assert validate_charmap(cube(2), lam).ok
    assert dual_basis(cube(2), lam) == ((1, 0), (-1, 1))


def test_dual_basis_delta_property_random_unimodular():
    rng = random.Random(3)
    p = simplex(2)
    for _ in range(10):
        # random unimodular 2x2 via row operations on the identity
        u = [[1, 0], [0, 1]]
        for _ in range(4):
            k = rng.randint(-2, 2)
            if rng.random() < 0.5:
                u[0] = [u[0][j] + k * u[1][j] for j in range(2)]
            else:
                u[1] = [u[1][j] + k * u[0][j] for j in range(2)]
        lam = simplex_charmap(2)
        moved = CharacteristicMap(
            tuple(tuple(sum(u[i][k] * v[k] for k in range(2)) for i in range(2))
                  for v in lam.vectors),
            base_vertex=0)
        duals = dual_basis(p, moved)
        base = sorted(p.vertices[0])
        for i, ui in enumerate(duals):
            for k, f in enumerate(base):
                assert ui(moved.vectors[f]) == (1 if i == k else 0)


def test_dual_basis_requires_base_vertex():
    lam = CharacteristicMap(simplex_charmap(2).vectors)
    with pytest.raises(NoBaseVertexError):
        dual_basis(simplex(2), lam)


def test_dual_basis_nonunimodular_base_rejected():
    # vertex 0 uses facets 1 and 2; their vectors span index 2 here
    lam = CharacteristicMap(((0, 1), (1, 1), (1, -1)), base_vertex=0)
    with pytest.raises(ValueError):
        dual_basis(simplex(2), lam)


def test_reindex_keeps_vectors():
    lam = simplex_charmap(2)
    moved = reindex_to_base(simplex(2), lam, 1)
    assert moved.vectors == lam.vectors
    assert moved.base_vertex == 1
    again = reindex_to_base(simplex(2), moved, 1)
    assert again == moved
    with pytest.raises(ValueError):
        reindex_to_base(simplex(2), lam, 7)


def test_product_charmap_blocks():
    lam = product_charmap(simplex(1), simplex_charmap(1),
                          simplex(2), simplex_charmap(2))
    assert lam.vectors == ((-1, 0, 0), (1, 0, 0),
                           (0, -1, -1), (0, 1, 0), (0, 0, 1))
    assert lam.base_vertex == 0
    p = product(simplex(1), simplex(2))
    assert validate_charmap(p, lam).ok
    # base facets of vertex 0 are {1,3,4}, whose vectors are the identity
    assert dual_basis(p, lam) == ((1, 0, 0), (0, 1, 0), (0, 0, 1))


@pytest.mark.parametrize("vectors, base", [
    (((1.9, 0), (0, 1)), 0),
    (((1, 0), (0, Fraction(1))), 0),
    (((1, 0), (0, "1")), 0),
    (((1, 0), (0, 1)), 0.0),
    (((True, 0), (0, 1)), 0),
])
def test_charmap_rejects_non_integers(vectors, base):
    # truncating 1.9 to 1 would silently label a different manifold
    with pytest.raises(TypeError):
        CharacteristicMap(vectors, base)
