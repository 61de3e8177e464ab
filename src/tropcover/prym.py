"""Jacobians of double covers: Prym varieties, pullback kernels, the pairing.

The involution of a cover acts on the cycle space of its (virtualized)
source; the Prym variety is the image of (1 - involution) inside the
tropical Jacobian.  Membership is an exact lattice question, and the
mod-2 pairing of a free cover against an even subgraph reads off whether
the pulled-back two-torsion divisor lands in the Prym.
"""

from __future__ import annotations

from operator import mul
from typing import List

from . import linalg
from .covers import DoubleCover, free_covers, pushforward
from .divisors import Divisor, is_principal
from .errors import CoverError, DegreeError, PrymError
from .graphs import Point, memoized, span
from .jacobian import period_lattice, scaled_abel_jacobi
from .rationals import rat
from .theta import theta_characteristic, two_torsion_divisor, two_torsion_divisors


def _cycle_matrix(cycles, image, nontree) -> List[List[int]]:
    """Row j: cycle j mapped edge by edge, image(e) giving [(edge,
    multiplicity)], read on the non-tree edges nontree.  A cover's
    involution, push and pullback matrices are all of this form."""
    rows = []
    for cyc in cycles:
        mapped = {}
        for e, c in cyc.items():
            for f, m in image(e):
                mapped[f] = mapped.get(f, 0) + m * c
        rows.append([mapped.get(nt, 0) for nt in nontree])
    return rows


class HomologyAction:
    """Involution action on the cycle space of the virtualized source, and
    the integer data that decides Prym membership from source coordinates.

    Every matrix here holds ints.  Keeps no reference to the cover, whose
    memo holds the action.
    """

    def __init__(self, cover: DoubleCover, eps=1):
        self.lattice = lat = period_lattice(cover.source_sharp(eps))
        nontree = lat.cycles.nontree
        inv_e = cover.involution_e

        def involute(e):  # a lift to its partner, a dilated lift to itself
            if e in inv_e:
                return ((inv_e[e], 1),)
            cover.loop_vertex(e)  # PointError unless e is a virtual loop,
            return ((e, -1),)  # which is reversed in place

        # row j = coordinates of the image of basis cycle j
        self.matrix = _cycle_matrix(lat.basis, involute, nontree)
        self.target_lattice = period_lattice(cover.target)
        # pushforward matrix: row i expresses the target cycle i pulled
        # back along the cover (degree-weighted) in the source basis, so
        # that P . source coords = target coords of the pushforward
        over_e = cover.frame.fibers[1]
        self.push_matrix = _cycle_matrix(
            self.target_lattice.basis, lambda te: over_e.get(te, ()), nontree
        )
        # membership data: integer rows of the left null space of Id - J
        # (scaling a row moves the projected class and lattice alike), and
        # the lattice generators projected onto them, over lat.scale
        g = len(self.matrix)
        diff = [
            [int(i == j) - x for j, x in enumerate(row)]
            for i, row in enumerate(self.matrix)
        ]
        self.null = linalg.left_nullspace(diff)
        proj = [
            [sum(map(mul, row, col)) for col in lat.scaled_gram]  # Gram is symmetric
            for row in self.null
        ]
        gens = [[row[j] for row in proj] for j in range(g)]
        self.prym_lattice = linalg.IntegerLattice(gens, len(self.null), lat.scale)
        # pull . target coords = source coords of the pullback
        self.pull = pullback_matrix(cover, lat)

    def norm_vanishes(self, nums, den: int) -> bool:
        """Whether the class with source coordinates nums / den pushes
        forward to a principal class: P nums / den in the target lattice."""
        push = [sum(map(mul, row, nums)) for row in self.push_matrix]
        return self.target_lattice.contains(push, den)

    def contains(self, nums, den: int) -> bool:
        """Prym membership of the class with source coordinates nums / den
        (of degree 0 on every component of the source): the projection onto
        the left null space of Id - J lies in the projected lattice.  Raises
        PrymError when the pushforward is not principal."""
        if not self.norm_vanishes(nums, den):
            raise PrymError("the pushforward is not principal")
        if not self.null:
            return True
        proj = [sum(map(mul, row, nums)) for row in self.null]
        return self.prym_lattice.contains(proj, den)


def pullback_matrix(cover: DoubleCover, lat) -> List[List[int]]:
    """Q with Q x the coordinates in lat, the virtualized source's period
    lattice, of the pullback of a target class with coordinates x, up to a
    lattice vector.  A lift of length l/d counts d times, so <phi^* c,
    gamma> = <c, phi_* gamma>: row j is basis cycle j pushed forward (a
    virtual loop to 0), read on the target's non-tree edges."""
    edge_map = cover.edge_map
    return _cycle_matrix(
        lat.basis,
        lambda se: ((edge_map[se][0], 1),) if se in edge_map else (),
        cover.target.cycle_space().nontree,
    )


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
    sharp = cover.source_sharp(eps)
    if not D.graph.same_model(sharp):
        raise CoverError("divisor does not live on the virtualized source")
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


def _pullback_in_prym(act: HomologyAction, nums, den: int) -> bool:
    """prym_contains(cover, pullback(cover, D)) for D with target coordinates
    nums / den and act the cover's action.  A pullback has degree 0 on each
    sheet of a disconnected source: the trivial cover needs no parity branch."""
    return act.contains([sum(map(mul, row, nums)) for row in act.pull], den)


def kernel_component_count(cover: DoubleCover, eps=1) -> int:
    """Components of the norm-map kernel over a connected target: 1 (dilated) or 2 (free)."""
    _require_connected_target(cover)
    sharp = cover.source_sharp(eps)
    moved = next(
        (v for v in sharp.vertex_ids if cover.involution_v.get(v, v) != v), None
    )
    if moved is None:
        return 1
    other = cover.involution_v[moved]
    D = Divisor(
        sharp, [(Point.at_vertex(moved), 1), (Point.at_vertex(other), -1)]
    )
    return 1 if prym_contains(cover, D, eps) else 2


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
        nums, den = scaled_abel_jacobi(act.target_lattice, D)
        _, r, q = act.lattice.divide([sum(map(mul, row, nums)) for row in act.pull], den)
        if any(2 * x != q for x in r if x):
            raise CoverError("the pullback of a 2-torsion class is not 2-torsion")
        basis_labels.append(sum(1 << j for j, x in enumerate(r) if x))
    return [c for c, label in zip(evens, span(basis_labels, 0)) if not label]


def weil_pairing(cover: DoubleCover, cycle) -> int:
    """Mod-2 pairing of a free cover with an even subgraph's torsion class."""
    if cover.dilation:
        raise CoverError("the pairing is defined for free covers only")
    D = two_torsion_divisor(cover.target, cycle)
    x = scaled_abel_jacobi(period_lattice(cover.target), D)
    return 0 if _pullback_in_prym(homology_action(cover), *x) else 1


def pairing_table(graph):
    """(even subgraphs, matrix): rows follow free_covers order, columns the
    even-subgraph order, entries the mod-2 pairing."""
    covers = free_covers(graph)
    evens, torsion = two_torsion_divisors(graph)
    lat = period_lattice(graph)
    coords = [scaled_abel_jacobi(lat, D) for D in torsion]  # once per class
    table = [
        [0 if _pullback_in_prym(act, *x) else 1 for x in coords]
        for act in map(homology_action, covers)
    ]
    return evens, table
