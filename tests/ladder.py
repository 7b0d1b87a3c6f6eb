"""Small labeled polytopes shared by the test modules: the ladder rungs on
which normal forms and structure constants are cross-checked."""

import random

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


def random_tower(n, rng):
    return BottMatrix(n, [
        (i, j, rng.randint(-2, 2))
        for i in range(1, n + 1) for j in range(i + 1, n + 1)])


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


def generic_functional(dim):
    return tuple(1 << k for k in range(dim))
