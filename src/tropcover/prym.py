"""Jacobians of double covers: Prym varieties, pullback kernels, the pairing.

The Prym variety of a cover is the connected component of the identity in
the kernel of the norm map, the pushforward on Jacobians.  Membership is an
exact lattice question that the pushforward alone decides, and one integer
matrix per cover carries it.

Notation: Q is the pullback matrix (target coordinates to the source
coordinates of the pullback), Gram_S and Gram_T the Gram matrices and L =
Gram_S Z^g_S the source period lattice.  Row k of Q is the source basis
cycle gamma_k pushed forward, in the target's cycle coordinates, and the
coordinates of gamma_k are column k of Gram_S.  So by the projection
formula <pi_* a, c> = <a, pi^* c> the push matrix P, never built, satisfies
P Gram_S = Gram_T Q^T.

On source cycles pi^* pi_* = 1 + iota: the pullback counts a lift with its
degree, and a virtual loop pushes forward to 0; pi^* is injective.  The
Prym is the image of 1 - iota, and over the reals that image is the kernel
of 1 + iota, iota being an involution.  So x lies in im(1 - iota) + L iff
(1 + iota) x lies in (1 + iota) L, iff P x lies in P L = Gram_T Q^T Z^g_S,
iff Gram_T^-1 P x = Q^T Gram_S^-1 x lies in the span of Q's rows.  With
Gram_S^-1 x = z + r / q, Q^T z lies there already: x is in the Prym iff q
divides w = Q^T r (else the pushforward is not principal) and w / q lies in
the span of Q's rows.  Over a connected source the kernel of the norm has
[Z^g : row span of Q] components.

The mod-2 pairing of a free cover against an even subgraph reads off
whether the pulled-back two-torsion divisor lands in the Prym.  On target
cycles pi_* pi^* = 2: a target cycle pulls back to its lifts counted with
their degree, which push forward to twice it.  So the norm of the pullback
of a target class with coordinates x is 2 x for every cover, and its test
divides 2 x by the target lattice, whatever the cover.  A pairing column,
the class D_c of an even subgraph c, is then decided once: z_c = Gram_T^-1
2 AJ(D_c), an integer vector since 2 D_c is principal, and the entry of
each cover is whether z_c lies in the span of that cover's Q rows.  The
table costs 2^g target divisions and 4^g Hermite membership tests.
"""

from __future__ import annotations

from math import prod
from operator import mul
from typing import List

from . import linalg
from .covers import DoubleCover, free_covers, pushforward
from .divisors import Divisor, is_principal
from .errors import CoverError, DegreeError, PrymError
from .graphs import memoized, span
from .jacobian import period_lattice, scaled_abel_jacobi
from .rationals import rat
from .theta import theta_characteristic, two_torsion_divisor, two_torsion_divisors


class HomologyAction:
    """The integer data that decides Prym membership from source
    coordinates: the source period lattice, the pullback matrix Q (`pull`)
    and the lattice its rows span (`prym_lattice`).

    Q is the cover's action on homology; the names HomologyAction and
    homology_action stay because the benchmark's tracer binds them.  Every
    matrix here holds ints.  Keeps no reference to the cover, whose memo
    holds the action.
    """

    def __init__(self, cover: DoubleCover, eps=1):
        self.lattice = lat = period_lattice(cover.source_sharp(eps))
        # pull . target coords = source coords of the pullback
        self.pull = pullback_matrix(cover, lat)
        # pi_* H_1(source) in the target's cycle coordinates
        g = len(cover.target.cycle_space().nontree)
        self.prym_lattice = linalg.IntegerLattice(self.pull, g)

    def contains(self, nums, den: int) -> bool:
        """Prym membership of the class with source coordinates nums / den
        (of degree 0 on every component of the source): Gram_S^-1 nums / den
        = z + r / q, and w = Q^T r over q is in the span of Q's rows.  Raises
        PrymError when the pushforward is not principal."""
        _, r, q = self.lattice.divide(nums, den)
        w = [sum(row[j] * x for row, x in zip(self.pull, r)) for j in range(self.prym_lattice.dim)]
        if any(x % q for x in w):
            raise PrymError("the pushforward is not principal")
        return self.prym_lattice.contains([x // q for x in w])


def pullback_matrix(cover: DoubleCover, lat) -> List[List[int]]:
    """Q with Q x the coordinates in lat, the virtualized source's period
    lattice, of the pullback of a target class with coordinates x, up to a
    lattice vector.  A lift of length l/d counts d times, so <phi^* c,
    gamma> = <c, phi_* gamma>: row j is basis cycle j pushed forward (a
    virtual loop to 0), read on the target's non-tree edges.  Raises
    PointError for any other source edge off the edge map."""
    edge_map = cover.edge_map
    nontree = cover.target.cycle_space().nontree
    rows = []
    for cyc in lat.basis:
        pushed = {}
        for se, c in cyc.items():
            if se in edge_map:
                te = edge_map[se][0]
                pushed[te] = pushed.get(te, 0) + c
            else:
                cover.loop_vertex(se)  # PointError unless se is a virtual loop
        rows.append([pushed.get(nt, 0) for nt in nontree])
    return rows


def homology_action(cover: DoubleCover, eps=1) -> HomologyAction:
    """Memoized per cover and virtual-loop length."""
    return memoized(cover._memo, ("action", rat(eps)), HomologyAction, cover, eps)


def _require_connected_target(cover: DoubleCover):
    if not cover.target.is_connected():
        raise CoverError("prym questions need a connected target graph")


def prym_contains(cover: DoubleCover, D: Divisor, eps=1) -> bool:
    """Whether the class of D lies in the Prym variety of the cover.

    The target must be connected and D a degree-0 divisor on the
    virtualized source.  The class is in the Prym iff it is the image of a
    degree-0 class under (1 - involution), so its pushforward is principal.
    """
    _require_connected_target(cover)
    sharp = cover.sharp_host(D, eps)
    if D.degree() != 0:
        raise DegreeError("prym membership needs a degree-0 divisor")
    if not sharp.is_connected():
        # two copies of the connected target; the image of (1 - involution)
        # on total-degree-0 classes is exactly the part with even degree on
        # each copy
        if not is_principal(pushforward(cover, D, eps)):
            raise PrymError("the pushforward is not principal")
        return all(d % 2 == 0 for d in D.component_degrees().values())
    act = homology_action(cover, eps)
    return act.contains(*scaled_abel_jacobi(act.lattice, D))


def kernel_component_count(cover: DoubleCover, eps=1) -> int:
    """Components of the norm-map kernel over a connected target: over a
    connected source the index of the span of Q's rows in Z^g, the product
    of its Hermite pivots (1 for a dilated cover, 2 for a free one); 2 over
    a disconnected source, where v^0 - v^1 has odd degree on each sheet."""
    _require_connected_target(cover)
    if not cover.source_sharp(eps).is_connected():
        return 2
    return prod(c[i] for i, c in homology_action(cover, eps).prym_lattice.pivots)


def pullback_kernel(cover: DoubleCover, eps=1):
    """Even subgraphs c with phi^* D_c principal, in even_subgraphs order.

    2 D_c is principal, so Gram^-1 of the coordinates of phi^* D_c in the
    source's period lattice (the action's pull times those of D_c) is z + r / q
    with r / q in {0, 1/2}^rank.  The label 2r / q mod 2 is additive in c
    and vanishes exactly when phi^* D_c is principal, so the labels of the
    g basis cycles decide every c: g + 1 theta characteristics and g
    divisions instead of 2^g of each.
    """
    act = homology_action(cover, eps)
    target = cover.target
    cs = target.cycle_space()
    evens = cs.even_subgraphs()
    base = theta_characteristic(target).divisor
    basis_labels = []
    for i in range(len(cs.basis)):
        D = theta_characteristic(target, evens[1 << i]).divisor - base
        nums, den = scaled_abel_jacobi(period_lattice(target), D)
        _, r, q = act.lattice.divide([sum(map(mul, row, nums)) for row in act.pull], den)
        if any(2 * x != q for x in r if x):
            raise CoverError("the pullback of a 2-torsion class is not 2-torsion")
        basis_labels.append(sum(1 << j for j, x in enumerate(r) if x))
    return [c for c, label in zip(evens, span(basis_labels, 0)) if not label]


def _norm_of_pullback(lat, D) -> List[int]:
    """z = Gram_T^-1 2 AJ(D) for a class D of the target with period lattice
    lat: the norm quotient of D's pullback, the same for every cover since
    pi_* pi^* = 2.  A cover's pairing entry is whether z is in its prym_lattice."""
    nums, den = scaled_abel_jacobi(lat, D)
    z, r, _ = lat.divide([2 * x for x in nums], den)
    if any(r):
        raise PrymError("the pushforward is not principal")
    return z


def weil_pairing(cover: DoubleCover, cycle) -> int:
    """Mod-2 pairing of a free cover with an even subgraph's torsion class."""
    if cover.dilation:
        raise CoverError("the pairing is defined for free covers only")
    D = two_torsion_divisor(cover.target, cycle)
    z = _norm_of_pullback(period_lattice(cover.target), D)
    return 0 if homology_action(cover).prym_lattice.contains(z) else 1


def pairing_table(graph):
    """(even subgraphs, matrix): rows follow free_covers order, columns the
    even-subgraph order, entries the mod-2 pairing."""
    covers = free_covers(graph)
    evens, torsion = two_torsion_divisors(graph)
    lat = period_lattice(graph)
    columns = [_norm_of_pullback(lat, D) for D in torsion]  # one division per class
    table = [
        [0 if act.prym_lattice.contains(z) else 1 for z in columns]
        for act in map(homology_action, covers)
    ]
    return evens, table
