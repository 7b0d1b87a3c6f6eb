"""Exact linear algebra on small dense matrices.

Matrices are plain lists of row lists. The rational routines take ints and
fractions.Fraction entries and return Fractions, but scale each row to
integers and eliminate without fractions inside. Nothing here is
asymptotically clever; every matrix this library meets is tiny.
"""

from fractions import Fraction
from math import gcd, lcm

from .errors import NonSquareError
from .validation import strict_int


def identity_matrix(k):
    return [[1 if i == j else 0 for j in range(k)] for i in range(k)]


def det_bareiss(a):
    """Exact integer determinant by fraction-free elimination."""
    n = len(a)
    if any(len(row) != n for row in a):
        raise NonSquareError(f"matrix is {n}x{len(a[0]) if a else 0}, need square")
    if n == 0:
        return 1
    m = [[strict_int(x) for x in row] for row in a]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k]), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        pivot, top = m[k][k], m[k]
        for i in range(k + 1, n):
            lead = m[i][k]
            # exact by the Bareiss identity; columns up to k become or stay
            # 0, and a row with lead 0 stays as it is when pivot == prev
            if lead or pivot != prev:
                m[i] = [(x * pivot - lead * y) // prev for x, y in zip(m[i], top)]
        prev = pivot
    return sign * m[n - 1][n - 1]


def rat_rref(a):
    """Reduced row echelon form over the rationals, of a matrix of ints and
    Fractions.

    Returns (matrix, pivot_columns), the matrix in Fractions. Deterministic:
    the first nonzero entry in each column is used as pivot, no magnitude
    heuristics are needed with exact arithmetic. The work is in ints: each
    row is scaled by the lcm of its denominators, Gauss-Jordan elimination
    scales rows instead of dividing them and divides each updated row by
    its content, and each pivot row is divided by its pivot once, at the
    end. The reduced form is unique, so this is the Fraction elimination's
    result entry for entry.
    """
    m = []
    for row in a:
        den = lcm(*(x.denominator for x in row))
        m.append([x.numerator * (den // x.denominator) for x in row])
    rows = len(m)
    cols = len(m[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        pr = next((i for i in range(r, rows) if m[i][c]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        top = m[r]
        p = top[c]
        for i in range(rows):
            f = m[i][c]
            if f and i != r:
                row = [x * p - f * y for x, y in zip(m[i], top)]
                g = gcd(*row)
                m[i] = [x // g for x in row] if g > 1 else row
        pivots.append(c)
        r += 1
    zero = Fraction(0)
    for i, c in enumerate(pivots):
        p = m[i][c]
        m[i] = [Fraction(x, p) if x else zero for x in m[i]]
    for i in range(r, rows):
        m[i] = [zero] * cols
    return m, pivots


def rat_rank(a):
    return len(rat_rref(a)[1])


def rat_solve(a, b):
    """One solution of a*x == b, or None when the system is inconsistent.

    Free variables are set to zero, so the answer is deterministic.
    """
    rows = len(a)
    if len(b) != rows:
        raise ValueError("right hand side length does not match")
    if rows == 0:
        return []
    aug = [list(row) + [b[i]] for i, row in enumerate(a)]
    m, pivots = rat_rref(aug)
    cols = len(a[0])
    if cols in pivots:
        return None
    x = [Fraction(0)] * cols
    for r, c in enumerate(pivots):
        x[c] = m[r][cols]
    return x


def rat_inverse(a):
    """Inverse matrix over the rationals, or None when singular."""
    n = len(a)
    if any(len(row) != n for row in a):
        raise NonSquareError("inverse needs a square matrix")
    if n == 0:
        return []
    aug = [list(row) + unit for row, unit in zip(a, identity_matrix(n))]
    m, pivots = rat_rref(aug)
    if pivots != list(range(n)):
        return None
    return [row[n:] for row in m]


def rat_det(a):
    """Determinant of a matrix of ints and Fractions: Bareiss on the matrix
    with each row scaled to integers by the lcm of its denominators, divided
    by the product of those lcms."""
    n = len(a)
    if any(len(row) != n for row in a):
        raise NonSquareError("determinant needs a square matrix")
    rows = []
    scale = 1
    for row in a:
        den = lcm(*(x.denominator for x in row))
        rows.append([x.numerator * (den // x.denominator) for x in row])
        scale *= den
    return Fraction(det_bareiss(rows), scale)
