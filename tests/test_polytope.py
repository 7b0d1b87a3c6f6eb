"""Combinatorics layer: builders, validation, non-faces, vertex orders."""

from fractions import Fraction
from functools import reduce
from itertools import combinations

import pytest

from ktoric import (
    OrderPropertyError,
    SimplePolytope,
    TieError,
    VertexOrder,
    ascending_faces,
    cube,
    minimal_nonfaces,
    order_vertices,
    product,
    simplex,
    validate_polytope,
)


def brute_minimal_nonfaces(p):
    """Scan every facet subset: a set is a face iff it lies in some vertex,
    a minimal non-face iff it is not and all proper subsets are."""
    facesets = p.vertices

    def is_face(s):
        return any(s <= v for v in facesets)

    out = []
    for k in range(1, p.facet_count + 1):
        for combo in combinations(range(p.facet_count), k):
            s = frozenset(combo)
            if is_face(s):
                continue
            if all(is_face(s - {f}) for f in s):
                out.append(tuple(sorted(s)))
    return sorted(out, key=lambda t: (len(t), t))


def test_simplex_counts():
    for n in range(1, 5):
        p = simplex(n)
        assert p.dim == n
        assert p.facet_count == n + 1
        assert p.vertex_count == n + 1
        assert all(len(v) == n for v in p.vertices)
        assert validate_polytope(p).ok


def test_simplex_vertex_omits_matching_facet():
    p = simplex(3)
    for k, v in enumerate(p.vertices):
        assert k not in v


def test_cube_counts_and_coords():
    for n in range(1, 4):
        p = cube(n)
        assert p.facet_count == 2 * n
        assert p.vertex_count == 2 ** n
        assert validate_polytope(p).ok
    p = cube(2)
    # vertex index is the binary word of its coordinates
    assert p.coords[3] == (1, 1)
    assert sorted(p.vertices[0]) == [0, 2]
    assert sorted(p.vertices[3]) == [1, 3]


def test_degenerate_dimensions_rejected():
    with pytest.raises(ValueError):
        simplex(0)
    with pytest.raises(ValueError):
        cube(0)
    with pytest.raises(ValueError):
        SimplePolytope(1, 2, ())


def test_product_prism():
    p = product(simplex(1), simplex(2))
    assert (p.dim, p.facet_count, p.vertex_count) == (3, 5, 6)
    assert validate_polytope(p).ok
    # left factor facets keep their indices, right facets are offset
    assert sorted(p.vertices[0]) == [1, 3, 4]
    assert p.coords[4] == (1, 1, 0)


def test_product_of_cubes_is_cube():
    p = product(cube(1), cube(1))
    q = cube(2)
    assert p.vertex_count == q.vertex_count
    assert brute_minimal_nonfaces(p) == [(0, 1), (2, 3)]


def test_validate_flags_nonsimple_vertex():
    p = SimplePolytope(2, 3, (frozenset({0}), frozenset({0, 1}), frozenset({1, 2}), frozenset({0, 2})))
    rep = validate_polytope(p)
    assert not rep.ok
    assert any(c.name == "vertex_simplicity" for c in rep.failures())


def test_validate_flags_duplicate_vertices():
    p = SimplePolytope(2, 3, (frozenset({0, 1}), frozenset({0, 1}), frozenset({1, 2})))
    rep = validate_polytope(p)
    assert any(c.name == "distinct_vertices" for c in rep.failures())


def test_validate_flags_uncovered_facet():
    p = SimplePolytope(2, 4, (frozenset({0, 1}), frozenset({1, 2}), frozenset({0, 2})))
    rep = validate_polytope(p)
    assert any(c.name == "facet_coverage" for c in rep.failures())


def test_validate_flags_disconnected():
    # two triangles sharing no facet, glued into one incidence table
    tri1 = [frozenset({0, 1}), frozenset({1, 2}), frozenset({0, 2})]
    tri2 = [frozenset({3, 4}), frozenset({4, 5}), frozenset({3, 5})]
    p = SimplePolytope(2, 6, tuple(tri1 + tri2))
    rep = validate_polytope(p)
    assert not rep.ok
    failed = {c.name for c in rep.failures()}
    assert "connected" in failed or "edge_count" in failed


def test_minimal_nonfaces_simplex_is_full_set():
    for n in range(1, 5):
        assert minimal_nonfaces(simplex(n)) == [tuple(range(n + 1))]


def test_minimal_nonfaces_cube_is_opposite_pairs():
    assert minimal_nonfaces(cube(3)) == [(0, 1), (2, 3), (4, 5)]


def test_minimal_nonfaces_cube_8_is_its_eight_opposite_pairs():
    assert minimal_nonfaces(cube(8)) == [(2 * i, 2 * i + 1) for i in range(8)]


def test_minimal_nonfaces_against_brute_force():
    # every incidence shape the benchmark workloads build
    products = [reduce(product, map(simplex, dims)) for dims in
                ((1, 2), (1, 3), (2, 2), (1, 1, 2), (2, 3), (1, 2, 2), (3, 3),
                 (2, 2, 2))]
    for p in (simplex(2), simplex(3), cube(2), cube(3), cube(4), cube(5),
              *products):
        assert list(minimal_nonfaces(p)) == brute_minimal_nonfaces(p)


def test_minimal_nonfaces_of_any_facet_family_property():
    # incidence data that is not a simple polytope: vertices of any size,
    # minimal nonfaces larger than dim+1
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    triangle_boundary = SimplePolytope(1, 3, ({0, 1}, {1, 2}, {0, 2}))
    assert minimal_nonfaces(triangle_boundary) == [(0, 1, 2)]

    # a vertex is a mask of d booleans, which draws sets of every size about
    # evenly where st.frozensets mostly draws small ones
    families = st.integers(1, 7).flatmap(lambda d: st.tuples(st.just(d), st.lists(
        st.lists(st.booleans(), min_size=d, max_size=d).map(
            lambda bits: frozenset(f for f, b in enumerate(bits) if b)),
        min_size=1, max_size=8)))

    @hypothesis.settings(max_examples=300, deadline=None, derandomize=True,
                         database=None)
    @hypothesis.given(families)
    def check(family):
        facets, vertices = family
        p = SimplePolytope(1, facets, tuple(vertices))
        assert minimal_nonfaces(p) == brute_minimal_nonfaces(p)

    check()


def test_order_vertices_simplex():
    vo = order_vertices(simplex(2), (1, 2))
    assert vo.order == (0, 1, 2)
    assert vo.heights == (0, 1, 2)


def test_order_vertices_tie_and_shape_errors():
    with pytest.raises(TieError):
        order_vertices(cube(2), (1, 0))
    with pytest.raises(ValueError):
        order_vertices(cube(2), (1,))
    bare = SimplePolytope(2, 3, simplex(2).vertices)
    with pytest.raises(ValueError):
        order_vertices(bare, (1, 2))


def test_vertex_order_validation():
    with pytest.raises(ValueError):
        VertexOrder((0, 0, 1), (0, 1, 2))
    with pytest.raises(ValueError):
        VertexOrder((0, 1), (1, 1))
    with pytest.raises(ValueError):
        VertexOrder((1, 0), (0, 1))
    vo = VertexOrder.from_sequence((2, 0, 1))
    assert vo.order == (2, 0, 1)
    assert vo.positions == (1, 2, 0)


def test_ascending_faces_simplex():
    p = simplex(2)
    af = ascending_faces(p, order_vertices(p, (1, 2)))
    assert sorted(af[0].facet_set) == []
    assert sorted(af[1].facet_set) == [0]
    assert sorted(af[2].facet_set) == [0, 1]
    # the empty face is the whole polytope, the top one a single vertex
    assert af[0].vertex_set == frozenset({0, 1, 2})
    assert af[2].vertex_set == frozenset({2})


def test_ascending_faces_cube_by_coordinate_signs():
    p = cube(2)
    af = ascending_faces(p, order_vertices(p, (1, 2)))
    # a direction contributes its upper facet exactly when the bit is set
    assert sorted(af[0].facet_set) == []
    assert sorted(af[1].facet_set) == [1]
    assert sorted(af[2].facet_set) == [3]
    assert sorted(af[3].facet_set) == [1, 3]


def test_ascending_faces_counts_by_outdegree():
    # |T_w| equals the number of descending edges at w
    p = product(simplex(1), simplex(2))
    vo = order_vertices(p, (1, 2, 4))
    af = ascending_faces(p, vo)
    sizes = sorted(len(af[w].facet_set) for w in range(p.vertex_count))
    assert sizes.count(0) == 1
    assert max(sizes) == p.dim


def test_explicit_order_must_come_from_a_height_function():
    with pytest.raises(OrderPropertyError):
        ascending_faces(cube(2), VertexOrder.from_sequence((0, 3, 1, 2)))


def test_explicit_valid_order_accepted():
    af = ascending_faces(cube(2), VertexOrder.from_sequence((0, 2, 1, 3)))
    assert sorted(af[3].facet_set) == [1, 3]


@pytest.mark.parametrize("order, heights", [
    ((0.0, 1), (0, 1)),
    ((0, Fraction(1)), (0, 1)),
    ((False, 1), (0, 1)),
])
def test_vertex_order_rejects_non_integers(order, heights):
    with pytest.raises(TypeError):
        VertexOrder(order, heights)


@pytest.mark.parametrize("seq", [[0.2, 1.9], [0, 1.0], [0, "1"], [False, True]])
def test_vertex_order_from_sequence_rejects_non_integers(seq):
    # [0.2, 1.9] used to truncate to the order (0, 1)
    with pytest.raises(TypeError):
        VertexOrder.from_sequence(seq)


@pytest.mark.parametrize("dim, facets, vertices", [
    (1, 2, ({1.0}, {0})),
    (1, 2, ({Fraction(1)}, {0})),
    (1.0, 2, ({1}, {0})),
    (1, 2.0, ({1}, {0})),
    (1, 2, ({True}, {0})),
])
def test_polytope_rejects_non_integers(dim, facets, vertices):
    with pytest.raises(TypeError):
        SimplePolytope(dim, facets, vertices)


@pytest.mark.parametrize("make", [
    pytest.param(lambda v: SimplePolytope(1, 2, ({1}, {0}), ((0,), (v,))),
                 id="coords"),
    pytest.param(lambda v: VertexOrder((0, 1), (0, v)), id="heights"),
    pytest.param(lambda v: order_vertices(simplex(2), (1, v)), id="functional"),
])
@pytest.mark.parametrize("value", [0.5, True])
def test_rationals_reject_floats_and_booleans(make, value):
    # Fraction(0.1) is the float's binary expansion, Fraction(True) is 1
    with pytest.raises(TypeError):
        make(value)
    make(Fraction(3, 2))
