"""Small exact linear algebra: elimination and integer lattices.

Matrices are lists of row lists holding Fractions (or ints).  Sizes here are
tiny (the genus of a graph and its covers), so clarity beats asymptotics.
"""

from fractions import Fraction
from math import gcd, lcm


def transpose(M):
    return [list(col) for col in zip(*M)] if M else []


def solve(M, b):
    """Solve the square nonsingular system M x = b exactly: the last column
    of rref([M | b])."""
    n = len(M)
    R, pivots = rref([list(row) + [x] for row, x in zip(M, b)])
    if pivots != list(range(n)):
        raise ValueError("singular matrix")
    return [row[n] for row in R]


def rref(M):
    """Reduced row echelon form in Fractions; returns (rows, pivot column
    indices).  The library eliminates in integers (integer_rref); this is
    the reference the tests hold it to."""
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


def integer_rref(M):
    """Gauss-Jordan elimination of an integer matrix in integers; returns
    (rows, pivot column indices).

    Each row is a nonzero integer multiple of the same row of rref(M): the
    pivots, the row swaps and the zero pattern are rref's, because clearing a
    column by cross-multiplication (p * row - c * pivot row) scales every
    row by a nonzero integer where rref subtracts a Fraction multiple.  Rows
    are divided by the gcd of their entries to keep them small.
    """
    A = [list(row) for row in M]
    pivots = []
    r = 0
    ncols = len(A[0]) if A else 0
    for col in range(ncols):
        piv = next((i for i in range(r, len(A)) if A[i][col]), None)
        if piv is None:
            continue
        A[r], A[piv] = A[piv], A[r]
        prow = A[r]
        p = prow[col]
        for i, row in enumerate(A):
            c = row[col]
            if i != r and c:
                row = [p * x - c * y for x, y in zip(row, prow)]
                k = gcd(*row) or 1
                A[i] = [x // k for x in row]
        pivots.append(col)
        r += 1
        if r == len(A):
            break
    return A, pivots


def left_nullspace(M):
    """Basis rows y with y M = 0 for an integer matrix M.

    The basis is the one rref of the transpose gives (a 1 at one free
    coordinate, minus the rref column at the pivots), each row scaled to the
    primitive integer vector with a positive free coordinate.
    """
    if not M:
        return []
    n = len(M)  # ambient dimension of y
    R, pivots = integer_rref(transpose(M))
    den = lcm(*(abs(R[r][pc]) for r, pc in enumerate(pivots)))
    basis = []
    for j in range(n):
        if j in pivots:
            continue
        y = [0] * n
        y[j] = den
        for r, pc in enumerate(pivots):
            y[pc] = -R[r][j] * (den // R[r][pc])
        k = gcd(*y)
        basis.append([x // k for x in y])
    return basis


def integer_inverse(M):
    """(N, d) with M^-1 = N / d and d > 0, for a nonsingular integer matrix."""
    n = len(M)
    R, pivots = integer_rref(
        [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(M)]
    )
    if pivots != list(range(n)):
        raise ValueError("singular matrix")
    d = lcm(*(abs(R[i][i]) for i in range(n)))
    return [[x * (d // R[i][i]) for x in R[i][n:]] for i in range(n)], d


class IntegerLattice:
    """The integer span of rational vectors, for repeated membership tests.

    The generators are scaled to integers by their least common denominator
    once, then brought to Hermite normal form by unimodular column
    operations (Cohen, A Course in Computational Algebraic Number Theory,
    2.4): each pivot column is zero above its pivot row and has a positive
    pivot, and the earlier columns' entries in that row are reduced modulo
    the pivot, which keeps the entries bounded.  contains() is integer
    back-substitution.
    """

    def __init__(self, gens, dim: int, den: int = 1):
        """The span of the vectors g / den for g in gens (ints or Fractions)."""
        gens = [list(g) for g in gens]
        if any(len(g) != dim for g in gens):
            raise ValueError("dimension mismatch")
        lift = lcm(*(x.denominator for g in gens for x in g))
        active = [[x.numerator * (lift // x.denominator) for x in g] for g in gens]
        # cancel what the generators share with lift * den, so that the
        # scaled generators depend on the vectors alone, not on how they
        # were written
        k = gcd(lift * den, *(x for g in active for x in g))
        den = lift * den // k
        if k > 1:
            active = [[x // k for x in g] for g in active]
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

    def contains(self, v, den: int = 1) -> bool:
        """Whether v / den (v ints or Fractions) is an integer combination of
        the generators."""
        if len(v) != self.dim:
            raise ValueError("dimension mismatch")
        scale = self.den
        b = []
        for x in v:
            q, r = divmod(x.numerator * scale, x.denominator * den)
            if r:
                return False
            b.append(q)
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
