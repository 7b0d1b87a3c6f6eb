"""Exact linear algebra on sparse rows.

Matrices come in and go out as plain lists of row lists. Every routine is
one Gauss-Jordan elimination in ints, `_eliminate`, on rows held as
{column: int} maps of their nonzero entries, so it pays per nonzero entry:
the change matrices of a face-class basis are mostly permutations, m x m
with m up to a few hundred. The rational routines take int and Fraction
entries and answer in ints over one positive denominator.
"""

from fractions import Fraction
from math import gcd, lcm, prod

from .errors import NonSquareError
from .validation import strict_int


def _scaled_rows(a):
    """The rows of a matrix of ints and Fractions as {column: int} maps of
    their nonzero entries, each row scaled to ints by the lcm of its
    denominators, and the list of those lcms. Every entry's denominator is
    read, zeros too."""
    m, dens = [], []
    for row in a:
        den = lcm(*(x.denominator for x in row))
        m.append({c: x.numerator * (den // x.denominator)
                  for c, x in enumerate(row) if x})
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
    """The size of the square matrix a; NonSquareError unless it is square."""
    n = len(a)
    if any(len(row) != n for row in a):
        raise NonSquareError(f"matrix is {n}x{len(a[0]) if a else 0}, need square")
    return n


def _det(m, n):
    """Determinant of the n x n int matrix of {column: int} rows m, which
    the elimination consumes."""
    pivots, up, down = _eliminate(m, n)
    if len(pivots) < n:
        return 0
    return down * prod(row[i] for i, row in enumerate(m)) // up


def det_int(a):
    """Exact determinant of a square int matrix."""
    n = _square(a)
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


def _as_lists(rows, cols, start=0):
    """The {column: int} rows as lists of their entries in the cols columns
    from start on."""
    out = [[0] * cols for _ in rows]
    for dense, row in zip(out, rows):
        for k, x in row.items():
            if k >= start:
                dense[k - start] = x
    return out


def _solved(a):
    """The reduced row echelon form of a matrix of ints and Fractions as
    (den, rows, pivot_columns): rows its nonzero rows in int numerators over
    one den > 0, with gcd(den, *entries) == 1. The form is unique, so this is
    the Fraction elimination's result entry for entry."""
    cols = len(a[0]) if a else 0
    den, rows, pivots = _reduced(_scaled_rows(a)[0], cols)
    return den, _as_lists(rows, cols), pivots


def rat_rank(a):
    return len(_eliminate(_scaled_rows(a)[0], len(a[0]) if a else 0)[0])


def rat_solve(a, b):
    """One solution of a*x == b as (den, xs), the int numerators xs over
    one den > 0 in lowest terms, or None when the system is inconsistent.

    Free variables are set to zero, so the answer is deterministic.
    """
    if len(b) != len(a):
        raise ValueError("right hand side length does not match")
    if not a:
        return 1, []
    den, rows, pivots = _solved([list(row) + [x] for row, x in zip(a, b)])
    cols = len(a[0])
    if cols in pivots:
        return None
    x = [0] * cols
    for row, c in zip(rows, pivots):
        x[c] = row[cols]
    g = gcd(den, *x)
    return den // g, [v // g for v in x]


def rat_inverse(a):
    """Inverse matrix over the rationals as (den, rows), int entries over one
    den > 0 in lowest terms, or None when singular."""
    n = _square(a)
    m, dens = _scaled_rows(a)
    for i, (row, den) in enumerate(zip(m, dens)):
        row[n + i] = den  # [a | 1] scaled: the identity's 1 becomes the lcm
    den, rows, pivots = _reduced(m, 2 * n)
    if pivots != list(range(n)):
        return None
    # the left half is den times the identity: den stays in lowest terms
    return den, _as_lists(rows, n, n)


def rat_det(a):
    """Determinant of a matrix of ints and Fractions: that of the matrix with
    each row scaled to integers by the lcm of its denominators, divided by
    the product of those lcms."""
    n = _square(a)
    m, dens = _scaled_rows(a)
    return Fraction(_det(m, n), prod(dens))
