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
from ktoric.polytope import generic_functional


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
