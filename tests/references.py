"""Reference code that no command runs, kept beside the tests that read it:
exact vectors from any numbers, a pair's summands and its essential pair
as standalone pairs, every symmetry of a Dynkin diagram, and the roots,
coroot pairings and weight coordinates of a root system, which the
package's own counts do without."""

from fractions import Fraction
from operator import neg

from cartanspaces.catalog import ReductivePair
from cartanspaces.engine import _central_part, _summands, cartan_space
from cartanspaces.errors import DimensionError
from cartanspaces.ratlinalg import Vector, combine, dot
from cartanspaces.rootsystems import RootSystem


def vec(entries) -> Vector:
    return tuple(Fraction(x) for x in entries)


def decompose(pair: ReductivePair) -> list[ReductivePair]:
    """Split a pair into its indecomposable direct summands."""
    return [sub for sub, *_ in _summands(pair)]


def essential_pair(pair: ReductivePair) -> ReductivePair:
    """The essential part repackaged as a pair on the same ambient algebra."""
    ess = cartan_space(pair).essential
    # a summand keeps all its items or none: a factor with a kept item keeps its slot
    kept = {t for it in ess.items for t in it.targets}
    return ReductivePair(pair.factors, pair.center_dim, ess.items,
                         _central_part(pair, ess.center_rows, kept, pair.center_dim))


def diagram_automorphisms(rs: RootSystem) -> list[tuple[int, ...]]:
    """All symmetries of the Dynkin diagram, as 0-based index permutations,
    found by extending a partial map node by node; O(l^4)."""
    l, C = rs.rank, rs.cartan_matrix
    results: list[tuple[int, ...]] = []

    def extend(img: list[int]):
        i = len(img)
        if i == l:
            results.append(tuple(img))
            return
        for cand in range(l):
            if cand not in img and C[cand][cand] == C[i][i] and all(
                    C[i][j] == C[cand][img[j]] and C[j][i] == C[img[j]][cand]
                    for j in range(i)):
                extend(img + [cand])

    extend([])
    return sorted(results)


def roots(rs: RootSystem) -> tuple[Vector, ...]:
    """All roots, sorted: the positive ones and their negatives."""
    negative = tuple(tuple(map(neg, r)) for r in rs.positive_roots)
    return tuple(sorted(rs.positive_roots + negative))


def pairing(beta: Vector, alpha: Vector) -> Fraction:
    """<beta, alpha^vee> = 2(beta,alpha)/(alpha,alpha)."""
    return Fraction(2 * dot(beta, alpha)) / dot(alpha, alpha)


def weight_vector(rs: RootSystem, coeffs) -> Vector:
    """Ambient coordinates of sum coeffs[i] * pi_{i+1}."""
    if len(coeffs) != rs.rank:
        raise DimensionError(f"{len(coeffs)} coefficients for rank {rs.rank}")
    return combine(coeffs, rs.fundamental_weights, rs.ambient_dim)
