"""Small labeled polytopes shared by the test modules: the ladder rungs on
which normal forms and structure constants are cross-checked."""

import random
from fractions import Fraction

import pytest

from ktoric import (
    BottMatrix,
    CharacteristicMap,
    bott_charmap,
    cube,
    product,
    product_charmap,
    simplex,
    simplex_charmap,
)
# the test modules take the library's generic functional from here
from ktoric.polytope import SimplePolytope, _edges, generic_functional


def random_tower(n, rng):
    return BottMatrix(n, [
        (i, j, rng.randint(-2, 2))
        for i in range(1, n + 1) for j in range(i + 1, n + 1)])


def truncated_triangle(k):
    """The polytope and facet-assignment documents of the triangle with its
    last vertex cut k times, k + 3 facets: each cut is 1/3 of the way along
    the last vertex's two edges, the toric blow-up of a fixed point (Fulton,
    Introduction to Toric Varieties, 1993, 2.4). The new facet gets the sum
    of the two facet vectors at the cut vertex, the cut vertex is dropped,
    and the two new vertices go last, ordered by the facet each one leaves."""
    vertices = [[1, 2], [0, 2], [0, 1]]
    coords = [(Fraction(0), Fraction(0)), (Fraction(1), Fraction(0)),
              (Fraction(0), Fraction(1))]
    lam = [[-1, -1], [1, 0], [0, 1]]
    for new in range(3, k + 3):
        cut, at = vertices.pop(), coords.pop()
        ends = {}  # facet left by the new vertex: (its vertex, its coordinates)
        for kept in cut:
            (left,) = set(cut) - {kept}
            w = next(i for i, v in enumerate(vertices) if kept in v)
            ends[left] = ([kept, new], tuple(a + (b - a) / 3
                                             for a, b in zip(at, coords[w])))
        for left in sorted(ends):
            vertices.append(ends[left][0])
            coords.append(ends[left][1])
        lam.append([a + b for a, b in zip(*(lam[f] for f in cut))])
    return ({"dim": 2, "facets": k + 3, "vertices": vertices,
             "coords": [[str(x) for x in pt] for pt in coords]},
            {"lambda": lam, "base_vertex": 0})


def cp2_sum():
    """The polytope and facet-assignment documents of CP²#CP², the standard
    quasitoric manifold that is not toric (Davis-Januszkiewicz, Duke Math.
    J. 62, 1991): truncated_triangle(1) with its new facet labeled λ0 - λ1,
    where the toric blow-up has λ0 + λ1."""
    pd, ld = truncated_triangle(1)
    ld["lambda"][3] = [-2, -1]
    return pd, ld


def truncate(p, lam, w, depth, signs):
    """The simple polytope p with its vertex w cut off, and its facet vectors
    lam with the new facet F's: for each facet f of w, in increasing order, a
    vertex at depth (a Fraction in (0, 1)) along the edge from w that leaves
    f, on the facets of w but f and on F. λ_F is the sum of signs[i] λ_i over
    the i-th facet of w, each sign ±1. The new vertex that leaves the i-th
    facet has determinant ±signs[i] times w's, so every sign pattern keeps
    the labeling unimodular; all +1 is the toric blow-up. The new vertices
    go last, and lam's base vertex is dropped."""
    facets = sorted(p.vertices[w])
    new = p.facet_count
    vertices = [fs for v, fs in enumerate(p.vertices) if v != w]
    coords = [pt for v, pt in enumerate(p.coords) if v != w]
    ends = _edges(p)[w]
    for f in facets:
        vertices.append(p.vertices[w] - {f} | {new})
        coords.append(tuple(a + depth * (b - a)
                            for a, b in zip(p.coords[w], p.coords[ends[f]])))
    cut = tuple(sum(s * lam.vectors[f][r] for s, f in zip(signs, facets))
                for r in range(p.dim))
    return (SimplePolytope(p.dim, new + 1, tuple(vertices), tuple(coords)),
            CharacteristicMap(lam.vectors + (cut,)))


def twisted_square(a):
    return cube(2), CharacteristicMap(((1, 0), (-1, a), (0, 1), (0, -1)),
                                      base_vertex=0)


def face_rungs():
    """(polytope, facet vectors) for simplices, twisted squares, the prism
    and the cube presentations of seeded towers of height <= 3."""
    for n in (2, 3, 4):
        yield pytest.param(simplex(n), simplex_charmap(n), id=f"simplex{n}")
    for a in (0, 1, 2):
        yield pytest.param(*twisted_square(a), id=f"square{a}")
    yield pytest.param(
        product(simplex(1), simplex(2)),
        product_charmap(simplex(1), simplex_charmap(1), simplex(2), simplex_charmap(2)),
        id="prism")
    for seed in (5, 17):
        rng = random.Random(seed)
        for n in (1, 2, 3):
            yield pytest.param(*bott_charmap(random_tower(n, rng)),
                               id=f"seed{seed}-tower{n}")
