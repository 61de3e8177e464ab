"""Prym varieties of double covers and the two-torsion pairing.

The involution of a cover acts on the cycle space of its (virtualized)
source; the Prym variety is the image of (1 - involution) inside the
tropical Jacobian.  Membership is an exact lattice question, and the
mod-2 pairing of a free cover against an even subgraph reads off whether
the pulled-back two-torsion divisor lands in the Prym.
"""

from __future__ import annotations

from operator import mul
from typing import Tuple

from . import linalg
from .covers import DoubleCover, free_covers, pullback_matrix, pushforward
from .divisors import Divisor, is_principal
from .errors import CoverError, DegreeError, PrymError
from .graphs import Point
from .jacobian import period_lattice, scaled_abel_jacobi
from .rationals import rat
from .theta import two_torsion_divisor, two_torsion_divisors


class HomologyAction:
    """Involution action on the cycle space of the virtualized source, and
    the integer data that decides Prym membership from source coordinates.

    Every matrix here holds ints.  Keeps no reference to the cover, whose
    memo holds the action.
    """

    def __init__(self, cover: DoubleCover, eps=1):
        self.sharp = cover.source_sharp(eps)
        self.lattice = lat = period_lattice(self.sharp)
        nontree = lat.cycles.nontree
        self.matrix = []  # row j = coordinates of the image of basis cycle j
        for cyc in lat.basis:
            image = {}
            for eid, c in cyc.items():
                ie, sign = _iota_edge(cover, eid)
                image[ie] = image.get(ie, 0) + sign * c
            self.matrix.append([image.get(nt, 0) for nt in nontree])
        self.target_lattice = period_lattice(cover.target)
        # pushforward matrix: row i expresses the target cycle i pulled
        # back along the cover (degree-weighted) in the source basis, so
        # that P . source coords = target coords of the pushforward
        self.push_matrix = []
        for tcyc in self.target_lattice.basis:
            lifted = {}
            for se, (te, d) in cover.edge_map.items():
                c = tcyc.get(te, 0)
                if c:
                    lifted[se] = d * c
            self.push_matrix.append([lifted.get(nt, 0) for nt in nontree])
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

    def fixed_complement_rank(self) -> int:
        """rank(Id - involution), the dimension of the Prym."""
        return len(self.matrix) - len(self.null)

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


def _iota_edge(cover: DoubleCover, eid: str) -> Tuple[str, int]:
    """Image of an oriented edge under the involution, with sign."""
    if eid in cover.edge_map:
        if cover.edge_map[eid][1] == 2:
            return eid, 1  # dilated edges are fixed pointwise
        return cover.involution_e[eid], 1
    cover.loop_vertex(eid)  # only a virtual loop lies outside edge_map
    return eid, -1  # virtual loops are reversed in place


def homology_action(cover: DoubleCover, eps=1) -> HomologyAction:
    """Memoized per cover and virtual-loop length."""
    key = ("action", rat(eps))
    act = cover._memo.get(key)
    if act is None:
        act = cover._memo[key] = HomologyAction(cover, eps)
    return act


def prym_contains(cover: DoubleCover, D: Divisor, eps=1) -> bool:
    """Whether the class of D lies in the Prym variety of the cover.

    D must be a degree-0 divisor on the virtualized source.  The class is
    in the Prym iff it is the image of a degree-0 class under
    (1 - involution); in particular its pushforward must be principal.
    """
    sharp = cover.source_sharp(eps)
    if not D.graph.same_model(sharp):
        raise CoverError("divisor does not live on the virtualized source")
    if D.degree() != 0:
        raise DegreeError("prym membership needs a degree-0 divisor")
    if not sharp.is_connected():
        # the source splits into two copies of the target; the image of
        # (1 - involution) on total-degree-0 classes is exactly the part
        # with even degree on each copy
        if not is_principal(pushforward(cover, D, eps)):
            raise PrymError("the pushforward is not principal")
        return all(d % 2 == 0 for d in D.component_degrees().values())
    act = homology_action(cover, eps)
    return act.contains(*scaled_abel_jacobi(act.lattice, D))


def _pullback_in_prym(cover: DoubleCover, nums, den: int, eps) -> bool:
    """prym_contains(cover, pullback(cover, D, eps), eps) for D with target
    coordinates nums / den, without a Divisor on the source.  A pullback
    has degree 0 on each sheet of a disconnected source, so the trivial
    cover's row needs no parity branch."""
    act = homology_action(cover, eps)
    return act.contains([sum(map(mul, row, nums)) for row in act.pull], den)


def kernel_component_count(cover: DoubleCover, eps=1) -> int:
    """Components of the norm-map kernel: 1 (dilated) or 2 (free)."""
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


def weil_pairing(cover: DoubleCover, cycle, eps=1) -> int:
    """Mod-2 pairing of a free cover with an even subgraph's torsion class."""
    if cover.dilation:
        raise CoverError("the pairing is defined for free covers only")
    D = two_torsion_divisor(cover.target, cycle)
    x = scaled_abel_jacobi(period_lattice(cover.target), D)
    return 0 if _pullback_in_prym(cover, *x, eps) else 1


def pairing_table(graph, eps=1):
    """(even subgraphs, matrix): rows follow free_covers order, columns the
    even-subgraph order, entries the mod-2 pairing."""
    covers = free_covers(graph)
    evens, torsion = two_torsion_divisors(graph)
    lat = period_lattice(graph)
    coords = [scaled_abel_jacobi(lat, D) for D in torsion]  # once per class
    table = [
        [0 if _pullback_in_prym(c, *x, eps) else 1 for x in coords] for c in covers
    ]
    return evens, table
