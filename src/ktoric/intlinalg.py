"""Exact linear algebra on small dense matrices.

Matrices are plain lists of row lists. Every routine is one Gauss-Jordan
elimination in ints, `_eliminate`; the rational ones take int and Fraction
entries and answer in ints over one positive denominator. Nothing here is
asymptotically clever; every matrix this library meets is tiny.
"""

from fractions import Fraction
from math import gcd, lcm, prod

from .errors import NonSquareError
from .validation import strict_int


def _scaled_rows(a):
    """The rows of a, each scaled to ints by the lcm of its denominators, and
    the product of those lcms."""
    m = []
    scale = 1
    for row in a:
        den = lcm(*(x.denominator for x in row))
        m.append([x.numerator * (den // x.denominator) for x in row])
        scale *= den
    return m, scale


def _eliminate(m):
    """Gauss-Jordan elimination of the int matrix m, in place: the first
    nonzero entry of each column is its pivot p, and each other row with f in
    that column becomes p * row - f * pivot row, divided by its content.
    Returns (pivot_columns, up, down); the pivot rows end on top, in order.
    For a square m of full rank the input's determinant is
    down * (product of the pivots) / up: up is the product of the row
    scalings, down that of the contents divided out, negated per row swap.
    """
    rows = len(m)
    cols = len(m[0]) if rows else 0
    pivots = []
    up = down = 1
    r = 0
    for c in range(cols):
        if r == rows:
            break
        for pr in range(r, rows):
            if m[pr][c]:
                break
        else:
            continue
        if pr != r:
            m[r], m[pr] = m[pr], m[r]
            down = -down
        top = m[r]
        p = top[c]
        others = [i for i in range(rows) if m[i][c] and i != r]
        contents = 1
        for i in others:
            f = m[i][c]
            row = [x * p - f * y for x, y in zip(m[i], top)]
            # an all-zero row has content 0 and is not divided
            g = gcd(*row)
            if g > 1:
                row = [x // g for x in row]
                contents *= g
            m[i] = row
        up *= p ** len(others)
        down *= contents
        pivots.append(c)
        r += 1
    return pivots, up, down


def det_int(a):
    """Exact determinant of a square int matrix."""
    n = len(a)
    if any(len(row) != n for row in a):
        raise NonSquareError(f"matrix is {n}x{len(a[0]) if a else 0}, need square")
    m = [[strict_int(x) for x in row] for row in a]
    pivots, up, down = _eliminate(m)
    if len(pivots) < n:
        return 0
    return down * prod(row[i] for i, row in enumerate(m)) // up


def _solved(a):
    """The reduced row echelon form of a matrix of ints and Fractions as
    (den, rows, pivot_columns): rows its nonzero rows in int numerators over
    one den > 0, with gcd(den, *entries) == 1. The form is unique, so this is
    the Fraction elimination's result entry for entry."""
    m = _scaled_rows(a)[0]
    pivots = _eliminate(m)[0]
    den = lcm(*(row[c] for row, c in zip(m, pivots)))
    rows = [[x * (den // row[c]) for x in row] for row, c in zip(m, pivots)]
    g = gcd(den, *(x for row in rows for x in row))
    return den // g, [[x // g for x in row] for row in rows], pivots


def rat_rank(a):
    return len(_eliminate(_scaled_rows(a)[0])[0])


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
    n = len(a)
    if any(len(row) != n for row in a):
        raise NonSquareError("inverse needs a square matrix")
    aug = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(a)]
    den, rows, pivots = _solved(aug)
    if pivots != list(range(n)):
        return None
    # the left half is den times the identity: den stays in lowest terms
    return den, [row[n:] for row in rows]


def rat_det(a):
    """Determinant of a matrix of ints and Fractions: that of the matrix with
    each row scaled to integers by the lcm of its denominators, divided by
    the product of those lcms."""
    m, scale = _scaled_rows(a)
    return Fraction(det_int(m), scale)
