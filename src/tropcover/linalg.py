"""Small exact linear algebra: rational elimination and integer lattices.

Matrices are lists of row lists holding Fractions (or ints).  Sizes here are
tiny (the genus of a graph and its covers), so clarity beats asymptotics.
"""

from fractions import Fraction
from math import lcm


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


def integer_row(row):
    """The row scaled by the lcm of its denominators, as ints."""
    den = lcm(*(x.denominator for x in row))
    return [x.numerator * (den // x.denominator) for x in row]


class IntegerLattice:
    """The integer span of rational vectors, for repeated membership tests.

    The generators are scaled to integers by the lcm of their denominators
    once, then brought to Hermite normal form by unimodular column
    operations (Cohen, A Course in Computational Algebraic Number Theory,
    2.4): each pivot column is zero above its pivot row and has a positive
    pivot, and the earlier columns' entries in that row are reduced modulo
    the pivot, which keeps the entries bounded.  contains() is integer
    back-substitution.
    """

    def __init__(self, gens, dim: int):
        gens = [list(g) for g in gens]
        if any(len(g) != dim for g in gens):
            raise ValueError("dimension mismatch")
        den = lcm(*(x.denominator for g in gens for x in g))
        active = [[x.numerator * (den // x.denominator) for x in g] for g in gens]
        pivots = []  # (row, column) in row order
        for i in range(dim):
            live = [c for c in active if c[i]]
            if not live:
                continue
            while len(live) > 1:
                # Euclid on row i: reduce every column by the smallest entry
                p = min(live, key=lambda c: abs(c[i]))
                for c in live:
                    if c is not p:
                        f = c[i] // p[i]
                        for k in range(i, dim):
                            c[k] -= f * p[k]
                live = [c for c in live if c[i]]
            p = live[0]
            if p[i] < 0:
                p[:] = [-x for x in p]
            for _, c in pivots:
                f = c[i] // p[i]
                if f:
                    for k in range(i, dim):
                        c[k] -= f * p[k]
            pivots.append((i, p))
            active = [c for c in active if c is not p and any(c)]
        self.dim = dim
        self.den = den
        self.pivots = pivots

    def contains(self, v) -> bool:
        """Whether v (ints or Fractions) is an integer combination of the
        generators."""
        if len(v) != self.dim:
            raise ValueError("dimension mismatch")
        den = self.den
        b = []
        for x in v:
            d = x.denominator
            if den % d:
                return False
            b.append(x.numerator * (den // d))
        for i, c in self.pivots:
            f, r = divmod(b[i], c[i])
            if r:
                return False
            if f:
                for k in range(i, self.dim):
                    b[k] -= f * c[k]
        return not any(b)


def in_lattice(gens, v):
    """Whether v is an integer combination of the given rational vectors."""
    return IntegerLattice(gens, len(v)).contains(v)
