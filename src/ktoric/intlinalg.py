"""Exact linear algebra on small dense matrices.

Matrices are plain lists of row lists. Integer routines stay in int, the
rational ones use fractions.Fraction throughout. Nothing here is
asymptotically clever; every matrix this library meets is tiny.
"""

from fractions import Fraction

from .errors import NonSquareError


def identity_matrix(k):
    return [[1 if i == j else 0 for j in range(k)] for i in range(k)]


def mat_mul(a, b):
    if not a or not b:
        return []
    if len(a[0]) != len(b):
        raise ValueError("inner dimensions do not match")
    cols = len(b[0])
    return [[sum(row[k] * b[k][j] for k in range(len(b))) for j in range(cols)]
            for row in a]


def det_bareiss(a):
    """Exact integer determinant by fraction-free elimination."""
    n = len(a)
    if any(len(row) != n for row in a):
        raise NonSquareError(f"matrix is {n}x{len(a[0]) if a else 0}, need square")
    if n == 0:
        return 1
    m = [[int(x) for x in row] for row in a]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k]), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                # exact by the Bareiss identity
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def smith_normal_form(a):
    """Diagonalize an integer matrix by unimodular row and column operations.

    Args:
        a: integer matrix, any shape.

    Returns:
        (u, d, v) with u*a*v == d, u and v square unimodular, d diagonal with
        nonnegative entries and each diagonal entry dividing the next.
    """
    rows = len(a)
    cols = len(a[0]) if rows else 0
    if any(len(row) != cols for row in a):
        raise ValueError("ragged matrix")
    d = [[int(x) for x in row] for row in a]
    u = identity_matrix(rows)
    v = identity_matrix(cols)

    def swap_rows(i, j):
        d[i], d[j] = d[j], d[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in d:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(i, j, q):  # row i += q * row j
        d[i] = [x + q * y for x, y in zip(d[i], d[j])]
        u[i] = [x + q * y for x, y in zip(u[i], u[j])]

    def add_col(i, j, q):  # col i += q * col j
        for row in d:
            row[i] += q * row[j]
        for row in v:
            row[i] += q * row[j]

    t = 0
    while t < min(rows, cols):
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                if d[i][j] and (best is None or abs(d[i][j]) < abs(d[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        if best[0] != t:
            swap_rows(t, best[0])
        if best[1] != t:
            swap_cols(t, best[1])
        while True:
            dirty = False
            for i in range(t + 1, rows):
                if d[i][t]:
                    add_row(i, t, -(d[i][t] // d[t][t]))
                    if d[i][t]:  # remainder became the smaller pivot
                        swap_rows(i, t)
                        dirty = True
            if dirty:
                continue
            for j in range(t + 1, cols):
                if d[t][j]:
                    add_col(j, t, -(d[t][j] // d[t][t]))
                    if d[t][j]:
                        swap_cols(j, t)
                        dirty = True
            if dirty:
                continue
            viol = None
            for i in range(t + 1, rows):
                if any(d[i][j] % d[t][t] for j in range(t + 1, cols)):
                    viol = i
                    break
            if viol is None:
                break
            add_row(t, viol, 1)  # drag a nondivisible entry next to the pivot
        if d[t][t] < 0:
            d[t] = [-x for x in d[t]]
            u[t] = [-x for x in u[t]]
        t += 1
    return u, d, v


def _as_fractions(a):
    return [[Fraction(x) for x in row] for row in a]


def rat_rref(a):
    """Reduced row echelon form over the rationals.

    Returns (matrix, pivot_columns). Deterministic: the first nonzero entry
    in each column is used as pivot, no magnitude heuristics are needed with
    exact arithmetic.
    """
    m = _as_fractions(a)
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
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
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
    aug = [list(row) + identity_matrix(n)[i] for i, row in enumerate(a)]
    m, pivots = rat_rref(aug)
    if pivots != list(range(n)):
        return None
    return [row[n:] for row in m]


def rat_det(a):
    """Determinant over the rationals by plain elimination."""
    n = len(a)
    if any(len(row) != n for row in a):
        raise NonSquareError("determinant needs a square matrix")
    m = _as_fractions(a)
    det = Fraction(1)
    for c in range(n):
        pr = next((i for i in range(c, n) if m[i][c]), None)
        if pr is None:
            return Fraction(0)
        if pr != c:
            m[c], m[pr] = m[pr], m[c]
            det = -det
        det *= m[c][c]
        inv = 1 / m[c][c]
        for i in range(c + 1, n):
            if m[i][c]:
                f = m[i][c] * inv
                m[i] = [x - f * y for x, y in zip(m[i], m[c])]
    return det
