"""Combinatorics layer: builders, validation, non-faces, vertex orders."""

import random
import re
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
from ktoric.polytope import _edges

from oracles import pairwise_adjacency

# three vertices on facet 0, which no polygon has: the ridge {0} holds all
# three, and each of {1}, {2}, {3} only the vertex it came from
STAR = SimplePolytope(2, 4, ({0, 1}, {0, 2}, {0, 3}))


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


def test_validate_flags_three_vertices_on_a_facet():
    # any two of the star's vertices share dim - 1 facets, so a pairwise
    # scan would give each vertex two neighbors
    failed = {c.name for c in validate_polytope(STAR).failures()}
    assert failed == {"edge_count", "connected"}


def test_edges_match_the_pairwise_scan_property():
    # small incidence tables: random ones, and simple polytopes with their
    # facets relabelled and their vertices shuffled, up to two vertices
    # replaced and the last one dropped; dim 1-3, at most 9 vertices and at
    # most dim + 4 facets
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    polygons = [SimplePolytope(2, k, tuple({i, (i + 1) % k} for i in range(k)))
                for k in (5, 6)]
    bases = [simplex(1), simplex(2), simplex(3), cube(2), cube(3),
             product(simplex(1), simplex(2)), *polygons]

    def vertex(dim, facets):
        return st.one_of(
            st.sets(st.integers(0, facets - 1), min_size=dim, max_size=dim),
            st.sets(st.integers(0, facets - 1), max_size=dim + 1))

    @st.composite
    def random_tables(draw):
        dim = draw(st.integers(1, 3))
        facets = draw(st.integers(dim, dim + 4))
        return dim, facets, draw(st.lists(vertex(dim, facets), min_size=1,
                                          max_size=9))

    @st.composite
    def edited_polytopes(draw):
        p = draw(st.sampled_from(bases))
        relabel = draw(st.permutations(range(p.facet_count)))
        vertices = draw(st.permutations([{relabel[f] for f in v}
                                         for v in p.vertices]))
        for _ in range(draw(st.integers(0, 2))):
            i = draw(st.integers(0, len(vertices) - 1))
            vertices[i] = draw(vertex(p.dim, p.facet_count))
        if draw(st.booleans()):
            vertices.pop()
        return p.dim, p.facet_count, vertices

    @st.composite
    def tables(draw):
        dim, facets, vertices = draw(st.one_of(edited_polytopes(),
                                               random_tables()))
        order = draw(st.permutations(range(len(vertices))))
        return SimplePolytope(dim, facets, tuple(vertices)), VertexOrder(order)

    def two_on_every_ridge(p):
        return all(sum(v >= w - {f} for v in p.vertices) == 2
                   for w in p.vertices for f in w)

    compared = []
    valid = []

    @hypothesis.settings(max_examples=400, deadline=None, derandomize=True,
                         database=None)
    @hypothesis.given(tables())
    def check(table):
        p, order = table
        if (len(set(p.vertices)) == p.vertex_count
                and all(len(v) == p.dim for v in p.vertices)
                and two_on_every_ridge(p)):
            compared.append(p)
            neighbors = [sorted(ends.values()) for ends in _edges(p)]
            assert neighbors == [sorted(a) for a in pairwise_adjacency(p)]
        if validate_polytope(p).ok:
            valid.append(p)
            try:
                ascending_faces(p, order)
            except OrderPropertyError:
                pass

    check()
    # the property must have met tables of both kinds
    assert compared and valid


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
    assert order_vertices(simplex(2), (1, 2)).order == (0, 1, 2)
    # heights 0, -1 and 2: vertex 1 drops below the origin
    assert order_vertices(simplex(2), (-1, 2)).order == (1, 0, 2)


def test_order_vertices_tie_and_shape_errors():
    with pytest.raises(TieError):
        order_vertices(cube(2), (1, 0))
    with pytest.raises(ValueError):
        order_vertices(cube(2), (1,))
    bare = SimplePolytope(2, 3, simplex(2).vertices)
    with pytest.raises(ValueError):
        order_vertices(bare, (1, 2))


def fraction_order(p, functional):
    """The vertex order, or the tie message, of the heights in Fraction
    arithmetic: the lowest vertex first, the first repeated height named."""
    heights = [sum(Fraction(a) * c for a, c in zip(functional, pt))
               for pt in p.coords]
    first = {}
    for i, h in enumerate(heights):
        if h in first:
            return f"vertices {first[h]} and {i} share height {h}"
        first[h] = i
    return tuple(sorted(range(len(heights)), key=heights.__getitem__))


def test_order_vertices_matches_fraction_heights():
    # order_vertices works in ints over one common denominator; its order
    # and its tie message are those of the heights themselves
    rng = random.Random(2718)

    def rational():
        return Fraction(rng.randint(-6, 6), rng.choice((1, 1, 2, 3, 4, 6, 9)))

    ties = 0
    for _ in range(300):
        dim = rng.randint(1, 3)
        pts = tuple(tuple(rational() for _ in range(dim))
                    for _ in range(rng.randint(1, 8)))
        functional = [rng.choice((rng.randint(-5, 5), rational()))
                      for _ in range(dim)]
        p = SimplePolytope(dim, dim, (frozenset(range(dim)),) * len(pts), pts)
        want = fraction_order(p, functional)
        if isinstance(want, str):
            ties += 1
            with pytest.raises(TieError) as err:
                order_vertices(p, functional)
            assert str(err.value) == want
        else:
            assert order_vertices(p, functional).order == want
    assert 20 < ties < 280


def test_vertex_order_validation():
    with pytest.raises(ValueError):
        VertexOrder((0, 0, 1))
    with pytest.raises(ValueError):
        VertexOrder((1, 2))
    vo = VertexOrder([2, 0, 1])
    assert vo.order == (2, 0, 1)
    assert vo.positions == (1, 2, 0)


def test_ascending_faces_simplex():
    p = simplex(2)
    af = ascending_faces(p, order_vertices(p, (1, 2)))
    assert af == {0: frozenset(), 1: frozenset({0}), 2: frozenset({0, 1})}
    # the empty facet set is the whole polytope, the top one a single vertex
    assert [v for v in p.vertices if af[0] <= v] == list(p.vertices)
    assert [v for v in p.vertices if af[2] <= v] == [p.vertices[2]]


def test_ascending_faces_cube_by_coordinate_signs():
    p = cube(2)
    af = ascending_faces(p, order_vertices(p, (1, 2)))
    # a direction contributes its upper facet exactly when the bit is set
    assert af == {0: frozenset(), 1: frozenset({1}), 2: frozenset({3}),
                  3: frozenset({1, 3})}


def test_ascending_faces_counts_by_outdegree():
    # |T_w| equals the number of descending edges at w
    p = product(simplex(1), simplex(2))
    vo = order_vertices(p, (1, 2, 4))
    af = ascending_faces(p, vo)
    sizes = sorted(map(len, af.values()))
    assert sizes.count(0) == 1
    assert max(sizes) == p.dim


def test_explicit_order_must_come_from_a_height_function():
    # vertex 3, second from the bottom, has no descending edge, so its face
    # is the whole square, which holds the lower vertex 0
    message = ("face at vertex 3 contains lower vertices [0]; "
               "the supplied order is not induced by a height function")
    with pytest.raises(OrderPropertyError, match=re.escape(message)):
        ascending_faces(cube(2), VertexOrder((0, 3, 1, 2)))


def test_ascending_faces_needs_an_edge_on_every_ridge():
    # a caller may pass a polytope that was never validated
    message = ("facets of vertex 0 minus 0 do not span an edge; "
               "polytope is not a valid simple polytope")
    with pytest.raises(ValueError, match=re.escape(message)):
        ascending_faces(STAR, VertexOrder((0, 1, 2)))


def test_explicit_valid_order_accepted():
    af = ascending_faces(cube(2), VertexOrder((0, 2, 1, 3)))
    assert af[3] == frozenset({1, 3})


@pytest.mark.parametrize("order", [(0.0, 1), (0, Fraction(1)), (False, 1)])
def test_vertex_order_rejects_non_integers(order):
    with pytest.raises(TypeError):
        VertexOrder(order)


@pytest.mark.parametrize("seq", [[0.2, 1.9], [0, 1.0], [0, "1"], [False, True]])
def test_vertex_order_from_sequence_rejects_non_integers(seq):
    # [0.2, 1.9] used to truncate to the order (0, 1)
    with pytest.raises(TypeError):
        VertexOrder(seq)


@pytest.mark.parametrize("seq", [[0, 1, 5], [-1, 0, 1], [0, 1, 3], [1, 1, 0]])
def test_vertex_order_from_sequence_needs_a_permutation(seq):
    # an entry past the last vertex or below 0 must not index the positions
    message = f"order {seq} is not a permutation of 0..2"
    with pytest.raises(ValueError, match=re.escape(message)):
        VertexOrder(seq)


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
    pytest.param(lambda v: order_vertices(simplex(2), (1, v)), id="functional"),
])
@pytest.mark.parametrize("value", [0.5, True])
def test_rationals_reject_floats_and_booleans(make, value):
    # Fraction(0.1) is the float's binary expansion, Fraction(True) is 1
    with pytest.raises(TypeError):
        make(value)
    make(Fraction(3, 2))
