"""Exact integer and rational linear algebra against independent oracles."""

import random
from fractions import Fraction

import pytest

from ktoric import NonSquareError
from ktoric.intlinalg import (
    det_bareiss,
    rat_det,
    rat_inverse,
    rat_rank,
    rat_rref,
    rat_solve,
)


def det_minors(a):
    # cofactor expansion along the first row, deliberately naive
    n = len(a)
    if n == 0:
        return 1
    if n == 1:
        return a[0][0]
    total = 0
    for j in range(n):
        if a[0][j]:
            minor = [row[:j] + row[j + 1:] for row in a[1:]]
            total += (-1) ** j * a[0][j] * det_minors(minor)
    return total


def rat_nullspace(a):
    """Basis of the right kernel, one vector per free column."""
    rows = len(a)
    cols = len(a[0]) if rows else 0
    m, pivots = rat_rref(a)
    basis = []
    for f in (c for c in range(cols) if c not in pivots):
        vec = [Fraction(0)] * cols
        vec[f] = Fraction(1)
        for r, c in enumerate(pivots):
            vec[c] = -m[r][f]
        basis.append(vec)
    return basis


def transpose(a):
    return [list(col) for col in zip(*a)] if a else []


def is_integer_matrix(a):
    return all(Fraction(x).denominator == 1 for row in a for x in row)


def random_matrix(rng, rows, cols, lo=-3, hi=3):
    return [[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)]


def test_det_bareiss_matches_cofactor_expansion():
    rng = random.Random(42)
    for _ in range(40):
        n = rng.randint(1, 5)
        a = random_matrix(rng, n, n)
        assert det_bareiss(a) == det_minors(a)


def test_det_bareiss_stays_integer():
    rng = random.Random(7)
    a = random_matrix(rng, 5, 5)
    assert isinstance(det_bareiss(a), int)


def test_det_bareiss_rejects_nonsquare():
    with pytest.raises(NonSquareError):
        det_bareiss([[1, 2, 3], [4, 5, 6]])


def test_rat_det_matches_cofactor_expansion():
    rng = random.Random(5)
    for _ in range(25):
        n = rng.randint(1, 4)
        a = random_matrix(rng, n, n)
        assert rat_det(a) == det_minors(a)
    # Fraction entries with mixed denominators, row by row
    for _ in range(25):
        n = rng.randint(1, 4)
        a = [[Fraction(rng.randint(-6, 6), rng.randint(1, 9)) for _ in range(n)]
             for _ in range(n)]
        assert rat_det(a) == det_minors(a)
    # singular: a repeated row
    a = [[Fraction(1, 2), Fraction(2, 3), 5],
         [Fraction(-3, 4), 1, Fraction(1, 6)],
         [Fraction(1, 2), Fraction(2, 3), 5]]
    assert rat_det(a) == det_minors(a) == 0
    # a zero leading entry forces a row swap
    a = [[0, Fraction(1, 3), Fraction(2, 5)],
         [Fraction(3, 2), Fraction(-1, 7), 1],
         [Fraction(5, 4), 2, Fraction(-2, 9)]]
    assert rat_det(a) == det_minors(a) != 0
    assert isinstance(rat_det(a), Fraction)
    assert rat_det([]) == 1


def test_rat_solve_recovers_known_solution():
    rng = random.Random(13)
    for _ in range(20):
        n = rng.randint(1, 4)
        a = random_matrix(rng, n, n)
        if rat_det(a) == 0:
            continue
        x = [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(n)]
        b = [sum(a[i][j] * x[j] for j in range(n)) for i in range(n)]
        assert rat_solve(a, b) == x


def test_rat_solve_inconsistent_returns_none():
    assert rat_solve([[1, 1], [1, 1]], [0, 1]) is None


def test_rat_solve_underdetermined_sets_free_vars_to_zero():
    assert rat_solve([[1, 1]], [3]) == [Fraction(3), Fraction(0)]


def test_rat_nullspace_annihilates():
    rng = random.Random(17)
    for _ in range(20):
        rows = rng.randint(1, 3)
        cols = rng.randint(1, 4)
        a = random_matrix(rng, rows, cols)
        basis = rat_nullspace(a)
        assert len(basis) == cols - rat_rank(a)
        for vec in basis:
            assert all(sum(a[i][j] * vec[j] for j in range(cols)) == 0
                       for i in range(rows))


def test_rat_inverse_roundtrip_and_singular():
    a = [[1, 1], [0, 1]]
    inv = rat_inverse(a)
    assert inv == [[1, -1], [0, 1]]
    assert rat_inverse([[1, 2], [2, 4]]) is None
    with pytest.raises(NonSquareError):
        rat_inverse([[1, 2]])


def test_transpose_and_integrality():
    assert transpose([[1, 2, 3], [4, 5, 6]]) == [[1, 4], [2, 5], [3, 6]]
    assert is_integer_matrix([[Fraction(2, 1), 3]])
    assert not is_integer_matrix([[Fraction(1, 2)]])
