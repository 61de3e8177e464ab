"""Small exact linear algebra: rational elimination and integer lattices.

Matrices are lists of row lists holding Fractions (or ints).  Sizes here are
tiny (the genus of a graph and its covers), so clarity beats asymptotics.
"""

from fractions import Fraction
from math import gcd


def identity(n):
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def mat_vec(M, v):
    return [sum((row[j] * v[j] for j in range(len(v))), Fraction(0)) for row in M]


def mat_mul(A, B):
    n, k = len(A), len(B)
    m = len(B[0]) if B else 0
    return [
        [sum((A[i][t] * B[t][j] for t in range(k)), Fraction(0)) for j in range(m)]
        for i in range(n)
    ]


def mat_sub(A, B):
    return [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]


def transpose(M):
    return [list(col) for col in zip(*M)] if M else []


def solve(M, b):
    """Solve the square nonsingular system M x = b exactly."""
    n = len(M)
    A = [[Fraction(M[i][j]) for j in range(n)] + [Fraction(b[i])] for i in range(n)]
    for col in range(n):
        piv = next((r for r in range(col, n) if A[r][col] != 0), None)
        if piv is None:
            raise ValueError("singular matrix")
        A[col], A[piv] = A[piv], A[col]
        pval = A[col][col]
        A[col] = [x / pval for x in A[col]]
        for r in range(n):
            if r != col and A[r][col] != 0:
                f = A[r][col]
                A[r] = [x - f * y for x, y in zip(A[r], A[col])]
    return [A[i][n] for i in range(n)]


def rref(M):
    """Reduced row echelon form; returns (rows, pivot column indices)."""
    A = [[Fraction(x) for x in row] for row in M]
    pivots = []
    r = 0
    ncols = len(A[0]) if A else 0
    for col in range(ncols):
        piv = next((i for i in range(r, len(A)) if A[i][col] != 0), None)
        if piv is None:
            continue
        A[r], A[piv] = A[piv], A[r]
        pval = A[r][col]
        A[r] = [x / pval for x in A[r]]
        for i in range(len(A)):
            if i != r and A[i][col] != 0:
                f = A[i][col]
                A[i] = [x - f * y for x, y in zip(A[i], A[r])]
        pivots.append(col)
        r += 1
        if r == len(A):
            break
    return A, pivots


def left_nullspace(M):
    """Basis rows y with y M = 0, from the rref of the transpose."""
    if not M:
        return []
    n = len(M)  # ambient dimension of y
    T = transpose(M)
    R, pivots = rref(T)
    free = [j for j in range(n) if j not in pivots]
    basis = []
    for j in free:
        y = [Fraction(0)] * n
        y[j] = Fraction(1)
        for r, pc in enumerate(pivots):
            y[pc] = -R[r][j]
        basis.append(y)
    return basis


def _integerize(rows):
    """Scale rational rows to integers by the lcm of all denominators."""
    denom = 1
    for row in rows:
        for x in row:
            d = Fraction(x).denominator
            denom = denom * d // gcd(denom, d)
    return [[int(Fraction(x) * denom) for x in row] for row in rows]


def in_lattice(gens, v):
    """Whether v is an integer combination of the given rational vectors.

    gens: list of generator vectors (each of the ambient dimension).
    Works by unimodular column reduction of the generator matrix to column
    echelon form, then greedy divisibility checks row by row.
    """
    dim = len(v)
    if not gens:
        return all(Fraction(x) == 0 for x in v)
    scaled = _integerize([list(g) for g in gens] + [list(v)])
    cols = [list(row) for row in scaled[:-1]]  # generators as columns
    b = list(scaled[-1])
    used = []  # (row, column index into cols) pivots in order
    active = list(range(len(cols)))
    for i in range(dim):
        live = [c for c in active if cols[c][i] != 0]
        while len(live) > 1:
            # combine the two columns via an extended gcd step
            c1, c2 = live[0], live[1]
            a, bb = cols[c1][i], cols[c2][i]
            x, y, g = _xgcd(a, bb)
            new1 = [x * cols[c1][k] + y * cols[c2][k] for k in range(dim)]
            new2 = [
                (-bb // g) * cols[c1][k] + (a // g) * cols[c2][k] for k in range(dim)
            ]
            cols[c1], cols[c2] = new1, new2
            live = [c for c in active if cols[c][i] != 0]
        if live:
            c = live[0]
            used.append((i, c))
            active.remove(c)
    # forward-substitute: fix each pivot variable, require integrality
    for i, c in used:
        if b[i] % cols[c][i]:
            return False
        q = b[i] // cols[c][i]
        for k in range(dim):
            b[k] -= q * cols[c][k]
    return all(x == 0 for x in b)


def _xgcd(a, b):
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q = a // b
        a, b = b, a - q * b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    return x0, y0, a
