"""Exact integer and rational linear algebra against independent oracles."""

import random
from fractions import Fraction
from math import gcd, lcm

import pytest

from ktoric import NonSquareError, intlinalg
from ktoric.intlinalg import (
    _reduced,
    _scaled_rows,
    det_int,
    rat_det,
    rat_inverse,
    rat_rank,
    rat_solve,
)

from oracles import (
    bareiss_det,
    fraction_inverse,
    fraction_nullspace,
    fraction_rref,
    fraction_solve,
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


def over(den, entries):
    """The Fractions behind int numerators over den, a vector or a matrix."""
    if entries and isinstance(entries[0], list):
        return [over(den, row) for row in entries]
    return [Fraction(x, den) for x in entries]


def assert_lowest_terms(den, entries):
    """den > 0, every entry an int and, all taken together, prime to den."""
    flat = [x for row in entries for x in row] if entries and isinstance(
        entries[0], list) else list(entries)
    assert type(den) is int and den > 0
    assert all(type(x) is int for x in flat)
    assert gcd(den, *flat) == 1


def pairs(a):
    """The dense matrix a as the rational routines take it: each row the
    list of its nonzero (column, value) pairs."""
    return [[(c, x) for c, x in enumerate(row) if x] for row in a]


def dense(rows, cols):
    """{column: int} rows, or one such row, as lists of cols entries."""
    if isinstance(rows, dict):
        return [rows.get(c, 0) for c in range(cols)]
    return [dense(row, cols) for row in rows]


def solve(a, b):
    """rat_solve on the dense matrix a, its solution read back densely."""
    got = rat_solve(pairs(a), b)
    if got is None:
        return None
    return got[0], dense(got[1], len(a[0]) if a else 0)


def inverse(a):
    """rat_inverse on the dense matrix a, its rows read back densely."""
    got = rat_inverse(pairs(a))
    if got is None:
        return None
    return got[0], dense(got[1], len(a))


def reduced(a):
    """The reduced row echelon form of the dense matrix a by _reduced on
    its row-scaled rows, as (den, dense rows, pivot_columns)."""
    cols = len(a[0]) if a else 0
    den, rows, pivots = _reduced(_scaled_rows(pairs(a))[0], cols)
    return den, dense(rows, cols), pivots


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
        assert det_int(a) == det_minors(a)


def test_det_bareiss_stays_integer():
    rng = random.Random(7)
    a = random_matrix(rng, 5, 5)
    assert isinstance(det_int(a), int)


def test_det_bareiss_rejects_nonsquare():
    with pytest.raises(NonSquareError):
        det_int([[1, 2, 3], [4, 5, 6]])
    # a ragged matrix whose first row is as long as the matrix is tall
    with pytest.raises(NonSquareError, match="row 1 has 1 entries, need 2"):
        det_int([[1, 2], [3]])


def test_rat_det_matches_cofactor_expansion():
    rng = random.Random(5)
    for _ in range(25):
        n = rng.randint(1, 4)
        a = random_matrix(rng, n, n)
        assert rat_det(pairs(a)) == det_minors(a)
    # Fraction entries with mixed denominators, row by row
    for _ in range(25):
        n = rng.randint(1, 4)
        a = [[Fraction(rng.randint(-6, 6), rng.randint(1, 9)) for _ in range(n)]
             for _ in range(n)]
        assert rat_det(pairs(a)) == det_minors(a)
    # singular: a repeated row
    a = [[Fraction(1, 2), Fraction(2, 3), 5],
         [Fraction(-3, 4), 1, Fraction(1, 6)],
         [Fraction(1, 2), Fraction(2, 3), 5]]
    assert rat_det(pairs(a)) == det_minors(a) == 0
    # a zero leading entry forces a row swap
    a = [[0, Fraction(1, 3), Fraction(2, 5)],
         [Fraction(3, 2), Fraction(-1, 7), 1],
         [Fraction(5, 4), 2, Fraction(-2, 9)]]
    assert rat_det(pairs(a)) == det_minors(a) != 0
    assert isinstance(rat_det(pairs(a)), Fraction)
    assert rat_det([]) == 1


def test_rat_solve_recovers_known_solution():
    rng = random.Random(13)
    for _ in range(20):
        n = rng.randint(1, 4)
        a = random_matrix(rng, n, n)
        if rat_det(pairs(a)) == 0:
            continue
        x = [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(n)]
        b = [sum(a[i][j] * x[j] for j in range(n)) for i in range(n)]
        assert over(*solve(a, b)) == x


def test_rat_solve_inconsistent_returns_none():
    assert rat_solve([[(0, 1), (1, 1)], [(0, 1), (1, 1)]], [0, 1]) is None


def test_rat_solve_needs_one_right_hand_side_entry_per_row():
    with pytest.raises(ValueError, match="right hand side length does not match"):
        rat_solve([[(0, 1)], [(1, 1)]], [1])


def test_rat_solve_underdetermined_sets_free_vars_to_zero():
    assert rat_solve([[(0, 1), (1, 1)]], [3]) == (1, {0: 3})
    assert rat_solve([[(0, 2)], [(1, 3)]], [1, 1]) == (6, {0: 3, 1: 2})


def test_rat_nullspace_annihilates():
    rng = random.Random(17)
    for _ in range(20):
        rows = rng.randint(1, 3)
        cols = rng.randint(1, 4)
        a = random_matrix(rng, rows, cols)
        basis = fraction_nullspace(a)
        assert len(basis) == cols - rat_rank(pairs(a))
        for vec in basis:
            assert all(sum(a[i][j] * vec[j] for j in range(cols)) == 0
                       for i in range(rows))


def test_rat_inverse_roundtrip_and_singular():
    assert rat_inverse([[(0, 1), (1, 1)], [(1, 1)]]) == (1, [{0: 1, 1: -1}, {1: 1}])
    assert rat_inverse([[(1, -2)], [(0, 3)]]) == (6, [{1: 2}, {0: -3}])
    assert rat_inverse([[(0, 1), (1, 2)], [(0, 2), (1, 4)]]) is None


@pytest.mark.parametrize("a", [
    [[(0, 1), (1, 2)]],
    [[(0, 1)], [(2, 1)]],
    [[(1, Fraction(1, 2))], [(0, 1), (3, 1)]],
    [[(-1, 1)]],
], ids=["one-row", "column-2-of-2", "column-3-of-2", "negative"])
@pytest.mark.parametrize("routine", [rat_det, rat_inverse],
                         ids=["rat_det", "rat_inverse"])
def test_square_routines_reject_a_column_past_the_row_count(routine, a):
    # a square routine takes its size from the row count
    with pytest.raises(NonSquareError):
        routine(a)


def test_transpose_and_integrality():
    assert transpose([[1, 2, 3], [4, 5, 6]]) == [[1, 4], [2, 5], [3, 6]]
    assert is_integer_matrix([[Fraction(2, 1), 3]])
    assert not is_integer_matrix([[Fraction(1, 2)]])


def mixed_matrix(rng, rows, cols):
    """Ints and Fractions of unlike denominators, about a third of them 0."""
    def entry():
        k = rng.randrange(6)
        if k < 2:
            return 0
        if k < 4:
            return rng.randint(-5, 5)
        return Fraction(rng.randint(-9, 9), rng.randint(1, 12))
    return [[entry() for _ in range(cols)] for _ in range(rows)]


def low_rank_matrix(rng, rows, cols, k, make=mixed_matrix):
    """A product of rows x k and k x cols matrices from make: rank at most k."""
    b, c = make(rng, rows, k), make(rng, k, cols)
    return [[sum(b[i][t] * c[t][j] for t in range(k)) for j in range(cols)]
            for i in range(rows)]


def elimination_cases():
    """Seeded random rectangular and rank-deficient matrices, then shapes a
    random draw may miss."""
    rng = random.Random(2024)
    for _ in range(60):
        yield mixed_matrix(rng, rng.randint(1, 5), rng.randint(1, 6))
    for _ in range(30):
        rows, cols = rng.randint(2, 5), rng.randint(2, 6)
        yield low_rank_matrix(rng, rows, cols, rng.randint(1, min(rows, cols) - 1))
    # the third row is the sum of the first two
    yield [[Fraction(1, 2), Fraction(1, 3), 1], [1, Fraction(2, 3), 2],
           [Fraction(3, 2), 1, 3]]
    # a zero row
    yield [[1, 2, 3], [0, 0, 0], [Fraction(1, 4), 5, Fraction(-2, 7)]]
    # a zero column
    yield [[0, Fraction(1, 3), 2], [0, 5, Fraction(-1, 6)], [0, 1, 1]]
    # column 0's pivot lies below a zero entry, and so does column 1's
    yield [[0, 1, Fraction(2, 5)], [0, Fraction(3, 7), 1], [Fraction(5, 3), 2, 1]]
    yield [[1, 2, 0, 1], [2, 4, Fraction(1, 2), 0], [Fraction(1, 3), 1, 1, 1]]
    # all zero, one row, one column, a column taller than wide
    yield [[0, 0], [0, 0]]
    yield [[Fraction(-4, 6), 0, Fraction(9, 12)]]
    yield [[0], [Fraction(2, 3)], [5]]


def test_reduced_matches_fraction_elimination():
    deficient = 0
    for a in elimination_cases():
        before = [list(row) for row in a]
        den, rows, pivots = reduced(a)
        assert_lowest_terms(den, rows)
        zero = [Fraction(0)] * len(a[0])
        m = over(den, rows) + [zero] * (len(a) - len(rows))
        assert (m, pivots) == fraction_rref(a)
        assert a == before
        assert rat_rank(pairs(a)) == len(pivots)
        deficient += len(pivots) < min(len(a), len(a[0]))
    assert deficient > 30


def test_elimination_integers_stay_within_hadamard_bound(monkeypatch):
    # a pivot row the elimination updated ends primitive and proportional
    # to its reduced row, so its ints are at most a minor of the row-scaled
    # matrix; an untouched row keeps its scaled entries. Neither exceeds the
    # product of the scaled rows' lengths (Hadamard), which the ints of an
    # elimination without the content division soon do. Each of _reduced,
    # rat_solve and rat_inverse eliminates once, on the matrix it is given
    # or on that matrix augmented
    seen = []
    true_eliminate = intlinalg._eliminate

    def spy(m, cols):
        out = true_eliminate(m, cols)
        seen.append(max((abs(x) for row in m for x in row.values()), default=0))
        return out

    def hadamard_sq(a):
        bound_sq = 1
        for row in a:
            den = lcm(*(Fraction(x).denominator for x in row))
            norm_sq = sum((x * den) ** 2 for x in row)
            bound_sq *= max(norm_sq, 1)
        return bound_sq

    monkeypatch.setattr(intlinalg, "_eliminate", spy)
    rng = random.Random(11)
    for _ in range(20):
        a = mixed_matrix(rng, 6, 8)
        square = [row[:6] for row in a]
        calls = [
            (lambda: reduced(a), a),
            (lambda: solve([row[:7] for row in a], [row[7] for row in a]),
             a),
            (lambda: inverse(square),
             [row + [int(i == j) for j in range(6)]
              for i, row in enumerate(square)]),
        ]
        for call, eliminated in calls:
            seen.clear()
            call()
            assert len(seen) == 1
            assert seen[0] ** 2 <= hadamard_sq(eliminated)


def test_rat_solve_matches_fraction_elimination():
    rng = random.Random(99)
    inconsistent = 0
    for a in elimination_cases():
        cols = len(a[0])
        x = [Fraction(rng.randint(-7, 7), rng.randint(1, 5)) for _ in range(cols)]
        consistent = [sum(row[j] * x[j] for j in range(cols)) for row in a]
        arbitrary = [rng.choice((0, 1, Fraction(-2, 3))) for _ in a]
        for b in (consistent, arbitrary):
            got = solve(a, b)
            if got is None:
                assert fraction_solve(a, b) is None
                inconsistent += 1
            else:
                assert_lowest_terms(*got)
                got = over(*got)
                assert got == fraction_solve(a, b)
                assert all(sum(row[j] * got[j] for j in range(cols)) == rhs
                           for row, rhs in zip(a, b))
    assert inconsistent > 10
    # inconsistent [A | b]: the rows of A are proportional, those of b not
    a = [[Fraction(1, 2), Fraction(1, 3)], [3, 2]]
    assert solve(a, [1, 6]) is not None
    assert solve(a, [1, 5]) is fraction_solve(a, [1, 5]) is None


def test_rat_inverse_matches_fraction_elimination():
    singular = 0
    for a in elimination_cases():
        if len(a) != len(a[0]):
            continue
        got = inverse(a)
        if got is None:
            assert fraction_inverse(a) is None
            singular += 1
        else:
            assert_lowest_terms(*got)
            assert over(*got) == fraction_inverse(a)
    assert singular > 3


def oracle_cases():
    """Seeded 6x6 to 10x10 matrices of ints and of mixed ints and Fractions,
    every third one of rank below its size."""
    rng = random.Random(606)
    for k in range(30):
        n = rng.randint(6, 10)
        rank = n - 1 - k % 4 if k % 3 == 0 else n
        for make in (random_matrix, mixed_matrix):
            yield (make(rng, n, n) if rank == n
                   else low_rank_matrix(rng, n, n, rank, make))


def test_det_matches_bareiss_oracle():
    singular = 0
    for a in oracle_cases():
        n = len(a)
        # det(a) = det(d * a) / d^n for a common denominator d of the entries
        d = lcm(*(Fraction(x).denominator for row in a for x in row))
        want = Fraction(bareiss_det([[int(x * d) for x in row] for row in a]),
                        d ** n)
        assert rat_det(pairs(a)) == want
        if d == 1:
            assert det_int(a) == want
        singular += want == 0
    assert singular >= 20


def test_det_rank_and_inverse_agree():
    invertible = singular = 0
    for a in elimination_cases():
        n = len(a)
        if len(a[0]) != n:
            continue
        det, inv = rat_det(pairs(a)), inverse(a)
        assert (det != 0) == (inv is not None) == (rat_rank(pairs(a)) == n)
        if inv is None:
            singular += 1
        else:
            assert det * rat_det(pairs(over(*inv))) == 1
            invertible += 1
    assert singular > 3 and invertible > 3


def test_sparse_elimination_matches_fraction_oracles_property():
    # mostly-zero matrices, the shape the elimination's {column: int} rows
    # are for: zero rows and columns, singular squares, Fraction entries,
    # Fraction(0) among the zeros; every routine against the Fraction
    # elimination or Bareiss, the inputs left as they were
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    entries = st.one_of(
        st.just(0), st.just(0), st.just(Fraction(0)), st.integers(-4, 4),
        st.fractions(min_value=-3, max_value=3, max_denominator=7))
    matrices = st.tuples(st.integers(1, 7), st.integers(1, 7)).flatmap(
        lambda shape: st.lists(
            st.lists(entries, min_size=shape[1], max_size=shape[1]),
            min_size=shape[0], max_size=shape[0]))
    seen = {"singular": 0, "invertible": 0, "inconsistent": 0}

    @hypothesis.settings(max_examples=150, deadline=None, derandomize=True,
                         database=None)
    @hypothesis.given(matrices, st.data())
    def check(a, data):
        before = [list(row) for row in a]
        den, rows, pivots = reduced(a)
        assert_lowest_terms(den, rows)
        zero = [Fraction(0)] * len(a[0])
        assert (over(den, rows) + [zero] * (len(a) - len(rows)),
                pivots) == fraction_rref(a)
        assert rat_rank(pairs(a)) == len(pivots)

        b = data.draw(st.lists(entries, min_size=len(a), max_size=len(a)))
        got = solve(a, b)
        if got is None:
            seen["inconsistent"] += 1
            assert fraction_solve(a, b) is None
        else:
            assert_lowest_terms(*got)
            assert over(*got) == fraction_solve(a, b)

        n = min(len(a), len(a[0]))
        sq = [row[:n] for row in a[:n]]
        d = lcm(*(Fraction(x).denominator for row in sq for x in row))
        det = Fraction(bareiss_det([[int(x * d) for x in row] for row in sq]),
                       d ** n)
        assert rat_det(pairs(sq)) == det
        if d == 1:
            assert det_int([[int(x) for x in row] for row in sq]) == det
        inv = inverse(sq)
        if inv is None:
            seen["singular"] += 1
            assert det == 0 and fraction_inverse(sq) is None
        else:
            seen["invertible"] += 1
            assert_lowest_terms(*inv)
            assert over(*inv) == fraction_inverse(sq)
        assert a == before
        # the pair rows too: the right-hand side and the identity ride in
        # copies of them
        rows, square = pairs(a), pairs(sq)
        rat_rank(rows), rat_solve(rows, b), rat_det(square), rat_inverse(square)
        assert (rows, square) == (pairs(a), pairs(sq))

    check()
    assert min(seen.values()) > 20, seen


@pytest.mark.parametrize("a", [
    [[False]],
    [[True]],
    [[0.0]],
    [[1.0]],
    [[1, 0], [0, False]],
    [[1, 0.0], [0, 1]],
], ids=["false", "true", "zero-float", "float", "zero-bool-in-row",
        "zero-float-in-row"])
def test_det_int_rejects_bool_and_float_entries(a):
    # strict_int reads every entry, zeros too, before the elimination skips
    # them; a bool would count as 0 or 1 and a float is not exact
    with pytest.raises(TypeError):
        det_int(a)
