"""Exact linear algebra on sparse rows.

A rational routine takes a matrix as the list of its rows, each the list of
its nonzero (column, value) pairs in increasing column order, a value an int
or a non-integral Fraction, so equal matrices give equal lists. It answers
in ints over one positive denominator, rows as {column: int} maps. Each
routine is one Gauss-Jordan elimination in ints, `_eliminate`, on such maps:
it pays per nonzero entry, and a face-class change matrix, m x m with m up
to a few hundred, is mostly a permutation.
"""

from fractions import Fraction
from math import gcd, lcm, prod

from .errors import NonSquareError
from .validation import strict_int


def _scaled_rows(a):
    """The rows of a matrix of (column, value) pairs as {column: int} maps,
    each row scaled to ints by the lcm of its denominators, and the list of
    those lcms."""
    m, dens = [], []
    for row in a:
        den = lcm(*(x.denominator for _, x in row))
        m.append({c: x.numerator * (den // x.denominator) for c, x in row})
        dens.append(den)
    return m, dens


def _eliminate(m, cols):
    """Gauss-Jordan elimination, in place, of the int matrix m with cols
    columns, as {column: int} rows of nonzero entries: the first nonzero
    entry of each column is its pivot p, and each other row with f in that
    column becomes p * row - f * pivot row, divided by its content.
    Returns (pivot_columns, up, down); the pivot rows end on top, in order.
    For a square m of full rank the input's determinant is
    down * (product of the pivots) / up: up is the product of the row
    scalings, down that of the contents divided out, negated per row swap.
    """
    rows = len(m)
    pivots = []
    up = down = 1
    r = 0
    for c in range(cols):
        if r == rows:
            break
        for pr in range(r, rows):
            if c in m[pr]:
                break
        else:
            continue
        if pr != r:
            m[r], m[pr] = m[pr], m[r]
            down = -down
        top = m[r]
        p = top[c]
        others = [i for i in range(rows) if c in m[i] and i != r]
        contents = 1
        for i in others:
            row = m[i]
            f = row[c]
            row = {k: x * p for k, x in row.items()}
            for k, y in top.items():
                x = row.get(k, 0) - f * y
                if x:
                    row[k] = x
                else:
                    del row[k]
            # an all-zero row has content 0 and is not divided
            g = gcd(*row.values())
            if g > 1:
                row = {k: x // g for k, x in row.items()}
                contents *= g
            m[i] = row
        up *= p ** len(others)
        down *= contents
        pivots.append(c)
        r += 1
    return pivots, up, down


def _square(a):
    """The row count n of the square matrix a of (column, value) rows;
    NonSquareError for a column index outside 0..n-1."""
    n = len(a)
    if any(not 0 <= c < n for row in a for c, _ in row):
        raise NonSquareError(f"matrix has {n} rows and a column outside 0..{n - 1}")
    return n


def _det(m, n):
    """Determinant of the n x n int matrix of {column: int} rows m, which
    the elimination consumes."""
    pivots, up, down = _eliminate(m, n)
    if len(pivots) < n:
        return 0
    return down * prod(row[i] for i, row in enumerate(m)) // up


def det_int(a):
    """Exact determinant of a square int matrix given as a list of row lists."""
    n = len(a)
    for i, row in enumerate(a):
        if len(row) != n:
            raise NonSquareError(f"row {i} has {len(row)} entries, need {n}")
    m = [{c: v for c, x in enumerate(row) if (v := strict_int(x))} for row in a]
    return _det(m, n)


def _reduced(m, cols):
    """The reduced row echelon form of the int matrix of {column: int} rows
    m with cols columns, which the elimination consumes, as (den, rows,
    pivot_columns): rows its nonzero rows as {column: int} numerators over
    one den > 0, with gcd(den, *entries) == 1."""
    pivots = _eliminate(m, cols)[0]
    den = lcm(*(row[c] for row, c in zip(m, pivots)))
    rows = [{k: x * (den // row[c]) for k, x in row.items()}
            for row, c in zip(m, pivots)]
    g = gcd(den, *(x for row in rows for x in row.values()))
    if g > 1:
        rows = [{k: x // g for k, x in row.items()} for row in rows]
    return den // g, rows, pivots


def _width(a):
    """One past the largest column index of the (column, value) rows a."""
    return 1 + max((c for row in a for c, _ in row), default=-1)


def rat_rank(a):
    return len(_eliminate(_scaled_rows(a)[0], _width(a))[0])


def rat_solve(a, b):
    """One solution of a*x == b, b one int or Fraction per row, as (den,
    {column: numerator}) over one den > 0 in lowest terms, or None when the
    system is inconsistent. Free variables, columns past a's last nonzero
    included, are zero, so the answer is deterministic."""
    if len(b) != len(a):
        raise ValueError("right hand side length does not match")
    cols = _width(a)
    m = _scaled_rows([[*row, (cols, x)] if x else row
                      for row, x in zip(a, b)])[0]
    den, rows, pivots = _reduced(m, cols + 1)
    if cols in pivots:
        return None
    x = {c: v for row, c in zip(rows, pivots) if (v := row.get(cols))}
    g = gcd(den, *x.values())
    return den // g, {c: v // g for c, v in x.items()}


def rat_inverse(a):
    """Inverse of the square matrix a over the rationals as (den, rows), its
    rows {column: int} maps of int numerators over one den > 0 in lowest
    terms, or None when singular."""
    n = _square(a)
    # [a | 1]: the identity's 1 scales to its row's lcm
    m = _scaled_rows([[*row, (n + i, 1)] for i, row in enumerate(a)])[0]
    den, rows, pivots = _reduced(m, 2 * n)
    if pivots != list(range(n)):
        return None
    # the left half is den times the identity: den stays in lowest terms
    return den, [{k - n: x for k, x in row.items() if k >= n} for row in rows]


def rat_det(a):
    """Determinant of the square matrix a: that of the matrix with each row
    scaled to integers by the lcm of its denominators, divided by the product
    of those lcms."""
    n = _square(a)
    m, dens = _scaled_rows(a)
    return Fraction(_det(m, n), prod(dens))
