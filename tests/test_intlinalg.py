"""Exact integer and rational linear algebra against independent oracles."""

import random
from fractions import Fraction

import pytest

from ktoric import NonSquareError
from ktoric.intlinalg import (
    det_bareiss,
    mat_mul,
    rat_det,
    rat_inverse,
    rat_rank,
    rat_rref,
    rat_solve,
    smith_normal_form,
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


def check_snf(a):
    u, d, v = smith_normal_form(a)
    rows, cols = len(a), len(a[0]) if a else 0
    assert mat_mul(mat_mul(u, a), v) == d
    assert abs(det_minors(u)) == 1
    assert abs(det_minors(v)) == 1
    diag = [d[i][i] for i in range(min(rows, cols))]
    for i in range(rows):
        for j in range(cols):
            if i != j:
                assert d[i][j] == 0
    assert all(x >= 0 for x in diag)
    for a_, b_ in zip(diag, diag[1:]):
        if a_:
            assert b_ % a_ == 0
        else:
            assert b_ == 0
    return diag


def test_snf_postconditions_random():
    rng = random.Random(11)
    for _ in range(30):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        check_snf(random_matrix(rng, rows, cols))


def test_snf_known_divisors():
    assert check_snf([[2, 0], [0, 3]]) == [1, 6]
    assert check_snf([[1, 0], [0, 1]]) == [1, 1]
    assert check_snf([[0, 0], [0, 0]]) == [0, 0]
    assert check_snf([[2, 4], [6, 8]]) == [2, 4]


def test_snf_rectangular():
    assert check_snf([[4, 6, 10]]) == [2]
    assert check_snf([[3], [6], [9]]) == [3]


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
