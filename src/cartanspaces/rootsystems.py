"""Simple root systems with exact rational coordinates.

Every system is realized in a fixed ambient Q^m whose standard dot product
is a positive multiple of the invariant form, so pairings between roots and
weights are exact.  A classical type reads its positive roots, with their
simple-root coordinates, off Bourbaki's plates I-IV; E, F and G close the
simple roots under reflections, which gives the coordinates as well.  The
Cartan matrix (cached per type by `cartan_matrix`), the fundamental weights
solved from it and the long-root sum `RootSystem.k` are computed on first
use.

Simple roots are numbered in the VO convention, the one used by all
classification tables in this package.  For the classical series and G2 it
coincides with the Bourbaki numbering; for F4 it is the reversal, and for
E6/E7/E8 the long arm of the diagram is numbered first, ending with the
branch node.  `vo_to_bourbaki` gives the relabeling, and the unit tests pin
it through the adjoint highest weight of every type.

The naming table of the simple algebras lives here, and every other module
reads it: `CLASSICAL`, `EXCEPTIONAL`, `size_dim`, `SimpleType.name` and
`algebra`, which maps a name back to its type.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import accumulate, combinations, compress
from operator import mul

from .errors import ConstraintError, DimensionError
from .ratlinalg import Vector, combine, dot, rref
from .values import Value

SERIES_MIN_RANK = {"A": 1, "B": 2, "C": 2, "D": 3, "E": 6, "F": 4, "G": 2}
SERIES_MAX_RANK = {"E": 8, "F": 4, "G": 2}
# Largest rank accepted for the classical series.  Neither `compute` nor
# `twist` builds a classical root system: at the ceiling `compute
# "so(257)/so(200)"` takes 0.18 s CPU with an 18 MB peak (0.93 s and 51 MB
# when it built D128), and twisting `so(256)/so(200)` by the spin-node swap,
# checked against `cartan_matrix`, takes 0.02-0.04 s (0.19 s and 33 MB more
# when it built D128).  A root system built by name, as `verify` does at small sample
# parameters, has about 2r^2 roots of length about r for B, C and D: D128
# has 32512 roots, read off the plates, and its build plus `k_value` takes
# 0.45 s CPU and adds 32.8 MB to the peak.  (`compute`: CLI processes with
# import, the rest after import; Python 3.11, one core of an Intel Xeon,
# where 39,999 `s += Fraction(i, i + 1)` take 1.31 s CPU, 1.09 s for `twist`.)
RANK_CEILING = 128
# Largest weight ambient of a pair (rank of g plus the dimension of its
# center), since a pair may have many factors: at the ceiling,
# `sl(128)+sl(128)+sl(128)+sl(128)+center(4)/sl(100) in 1` computes in
# 0.44 s CPU with a 22 MB peak (same machine and speed).
AMBIENT_CEILING = 4 * RANK_CEILING


# The rank-r algebra of series S is NAME(a*r + b) for CLASSICAL[S] = (NAME, a, b):
# sl(r+1), so(2r+1), sp(2r), so(2r) (Bourbaki, Lie Groups, ch. VI, plates I-IV).
CLASSICAL = {"A": ("sl", 1, 1), "B": ("so", 2, 1), "C": ("sp", 2, 0), "D": ("so", 2, 0)}
# The exceptional algebras: name (the `str` of the type) and dimension.
EXCEPTIONAL = {"G2": 14, "F4": 52, "E6": 78, "E7": 133, "E8": 248}


def size_dim(name: str, n: int) -> int:
    """Dimension of sl(n), so(n) or sp(n).  It holds for every n, also where
    the algebra is not simple: normalizers reach so(1) to so(4)."""
    if name == "sl":
        return n * n - 1
    if name == "so":
        return n * (n - 1) // 2
    if n % 2:
        raise ConstraintError(f"sp({n}) needs an even size")
    return n * (n + 1) // 2


class SimpleType(Value):
    """A simple Lie algebra type: series letter plus rank."""

    _fields = ("series", "rank")

    def __init__(self, series: str, rank: int):
        if series not in SERIES_MIN_RANK:
            raise ConstraintError(f"unknown series {series!r}")
        lo = SERIES_MIN_RANK[series]
        hi = SERIES_MAX_RANK.get(series, RANK_CEILING)
        if not (isinstance(rank, int) and lo <= rank <= hi):
            raise ConstraintError(f"rank {rank} invalid for series {series} (allowed {lo}..{hi})")
        object.__setattr__(self, "series", series)
        object.__setattr__(self, "rank", rank)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.series, self.rank) == (other.series, other.rank)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.series, self.rank))

    def __str__(self) -> str:
        return f"{self.series}{self.rank}"

    @property
    def dim(self) -> int:
        """Dimension of the Lie algebra."""
        n = self.classical_size
        return EXCEPTIONAL[str(self)] if n is None else size_dim(CLASSICAL[self.series][0], n)

    @property
    def classical_size(self) -> int | None:
        """n for sl(n)/so(n)/sp(n) descriptions, None for exceptional types."""
        if self.series not in CLASSICAL:
            return None
        _, a, b = CLASSICAL[self.series]
        return a * self.rank + b

    @property
    def name(self) -> str:
        """sl(6), so(9), sp(4) for a classical type, E6 for an exceptional one."""
        n = self.classical_size
        return str(self) if n is None else f"{CLASSICAL[self.series][0]}({n})"


def sl(n: int) -> SimpleType:
    if n < 2:
        raise ConstraintError(f"sl({n}) is not simple")
    return SimpleType("A", n - 1)


def so(n: int) -> SimpleType:
    # so(4) is not simple; below that the orthogonal description is not used.
    if n < 5:
        raise ConstraintError(f"so({n}) is not available as a simple orthogonal type")
    return SimpleType("B", (n - 1) // 2) if n % 2 else SimpleType("D", n // 2)


def sp(n: int) -> SimpleType:
    if n % 2 or n < 4:
        if n == 2:
            return SimpleType("A", 1)
        raise ConstraintError(f"sp({n}) requires even n >= 4 (or n = 2)")
    return SimpleType("C", n // 2)


_MATRIX = {"sl": sl, "so": so, "sp": sp}


def algebra(name: str, n: int | None = None) -> SimpleType:
    """The type of a matrix name and size (`sl`, 6), of a series letter and
    rank (`A`, 5) or of an exceptional name (`E6`)."""
    if name in _MATRIX:
        return _MATRIX[name](n)
    if name in EXCEPTIONAL:
        return SimpleType(name[0], int(name[1:]))
    return SimpleType(name, n)


def _basic(m: int, entries: dict[int, int]) -> tuple[int, ...]:
    v = [0] * m
    for i, x in entries.items():
        v[i] = x
    return tuple(v)


def _simple_roots(t: SimpleType) -> tuple[int, list[tuple[int, ...]]]:
    """Ambient dimension and simple roots in VO order, integer coordinates.

    The E and F realizations are the standard ones scaled by two so the
    reflection closure stays in integer arithmetic; every pairing used
    downstream is scale-invariant.
    """
    s, l = t.series, t.rank
    if s == "A":
        m = l + 1
        return m, [_basic(m, {i: 1, i + 1: -1}) for i in range(l)]
    if s == "B":
        m = l
        roots = [_basic(m, {i: 1, i + 1: -1}) for i in range(l - 1)]
        roots.append(_basic(m, {l - 1: 1}))
        return m, roots
    if s == "C":
        m = l
        roots = [_basic(m, {i: 1, i + 1: -1}) for i in range(l - 1)]
        roots.append(_basic(m, {l - 1: 2}))
        return m, roots
    if s == "D":
        m = l
        roots = [_basic(m, {i: 1, i + 1: -1}) for i in range(l - 1)]
        roots.append(_basic(m, {l - 2: 1, l - 1: 1}))
        return m, roots
    if s == "G":
        # Inside the sum-zero plane of Q^3; alpha_1 short so that pi_1 is the
        # weight of the 7-dimensional module.
        return 3, [(1, -1, 0), (-2, 1, 1)]
    if s == "F":
        # Reversal of the standard chain: pi_1 is the 26-dimensional weight.
        return 4, [
            (1, -1, -1, -1),
            (0, 0, 0, 2),
            (0, 0, 2, -2),
            (0, 2, -2, 0),
        ]
    # E series, realized inside Q^8 (doubled); b is keyed by Bourbaki label.
    b = {
        1: (1, -1, -1, -1, -1, -1, -1, 1),
        2: _basic(8, {0: 2, 1: 2}),
        3: _basic(8, {0: -2, 1: 2}),
        4: _basic(8, {1: -2, 2: 2}),
        5: _basic(8, {2: -2, 3: 2}),
        6: _basic(8, {3: -2, 4: 2}),
        7: _basic(8, {4: -2, 5: 2}),
        8: _basic(8, {5: -2, 6: 2}),
    }
    return 8, [b[i] for i in VO_TO_BOURBAKI[("E", l)]]


VO_TO_BOURBAKI = {
    ("E", 6): (1, 3, 4, 5, 6, 2),
    ("E", 7): (7, 6, 5, 4, 3, 1, 2),
    ("E", 8): (8, 7, 6, 5, 4, 3, 1, 2),
    ("F", 4): (4, 3, 2, 1),
}


def vo_to_bourbaki(t: SimpleType) -> tuple[int, ...]:
    """1-based Bourbaki label of each VO-numbered node."""
    return VO_TO_BOURBAKI.get((t.series, t.rank), tuple(range(1, t.rank + 1)))


class RootSystem(Value):
    """An exact realization of a simple root system.

    `positive_coords[k]` are the simple-root coordinates of
    `positive_roots[k]`, and `simple_norms[i]` is the ambient squared length
    of alpha_{i+1}.  Since (alpha_i, pi_j) = delta_ij |alpha_i|^2 / 2, a root
    sum_i c_i alpha_i pairs with the weight sum_i b_i pi_i to
    sum_i c_i b_i |alpha_i|^2 / 2, so counts over roots need neither ambient
    coordinates nor fundamental weights.
    """

    _fields = ("stype", "ambient_dim", "simple_roots", "positive_roots", "positive_coords",
               "simple_norms")

    @property
    def rank(self) -> int:
        return self.stype.rank

    @property
    def cartan_matrix(self) -> tuple[tuple[int, ...], ...]:
        return cartan_matrix(self.stype)

    @cached_property
    def k(self) -> int:
        """`k_value` at the highest root, computed on first use."""
        return k_value(self)

    @cached_property
    def fundamental_weights(self) -> tuple[Vector, ...]:
        """Ambient coordinates of pi_1..pi_l, solved from the Cartan matrix on first use."""
        cinv = _invert([[Fraction(x) for x in row] for row in self.cartan_matrix])
        return tuple(combine([row[i] for row in cinv], self.simple_roots, self.ambient_dim)
                     for i in range(self.rank))


def _invert(mat: list[list[Fraction]]) -> list[list[Fraction]]:
    n = len(mat)
    aug = [list(mat[i]) + [Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    red, piv = rref(aug, 2 * n)
    if piv != list(range(n)):
        raise DimensionError("matrix is singular")
    return [row[n:] for row in red]


def _coroot_pairing(b, support: list[tuple[int, int]], norm: int) -> int:
    """<b, alpha^vee> = 2(b, alpha)/(alpha, alpha) for the simple root alpha
    with nonzero entries `support` and squared length `norm`."""
    num = 2 * sum(b[k] * x for k, x in support)
    if num % norm:
        raise ConstraintError("non-integral pairing in realization")
    return num // norm


@lru_cache(maxsize=None)
def cartan_matrix(t: SimpleType) -> tuple[tuple[int, ...], ...]:
    """The Cartan matrix of t, <alpha_j, alpha_i^vee> in row i and column j,
    from the simple roots alone; each pairing reads the nonzero entries of
    alpha_i, since dense dot products over D128 take 0.2 s."""
    _, simple = _simple_roots(t)
    supports = [[(k, x) for k, x in enumerate(a) if x] for a in simple]
    return tuple(tuple(_coroot_pairing(b, sup, sum(x * x for _, x in sup)) for b in simple)
                 for sup in supports)


@lru_cache(maxsize=None)
def build_root_system(t: SimpleType) -> RootSystem:
    """Construct the root system of a simple type (cached, immutable)."""
    return _realize(t, plates=t.series in CLASSICAL)


def _realize(t: SimpleType, plates: bool) -> RootSystem:
    """The root system of t, its positive roots read off Bourbaki's plates
    (classical t only) or closed under reflections from the simple roots
    (any t); the tests check that the two are equal."""
    m, simple = _simple_roots(t)
    l = t.rank
    norms = tuple(sum(x * x for x in a) for a in simple)
    # nonzero entries of each simple root; classical ones have at most two
    supports = [[(k, x) for k, x in enumerate(a) if x] for a in simple]

    if plates:
        # Bourbaki's plates I-IV: e_i - e_j (i < j), for B, C and D also
        # e_i + e_j, and e_i for B, 2e_i for C.  With S_k the prefix sums of
        # a root's e-coordinates x, c_k = S_k, but c_l = S_l / 2 for C, and
        # c_{l-1} = (S_{l-1} - x_l) / 2, c_l = S_l / 2 for D.
        signs = (-1,) if t.series == "A" else (-1, 1)
        roots = [_basic(m, {i: 1, j: s}) for i, j in combinations(range(m), 2) for s in signs]
        if t.series in "BC":
            roots += [_basic(m, {i: 1 if t.series == "B" else 2}) for i in range(m)]
        seen = {}
        for r in roots:
            c = list(accumulate(r[:l]))
            if t.series == "C":
                c[-1] //= 2
            elif t.series == "D":
                c[-2], c[-1] = (c[-2] - r[-1]) // 2, c[-1] // 2
            seen[r] = tuple(c)
    else:
        # Reflection closure of the positive roots in integer arithmetic,
        # carrying simple-root coordinates.  A positive root of height above
        # one pairs positively with some alpha_i and s_i takes it to a
        # positive root of smaller height, while s_i keeps every positive
        # root but alpha_i positive; so closing the simple roots under the
        # s_i that keep them positive reaches every positive root.  Only the
        # alpha_i whose support meets beta's can pair with it nonzero.
        meeting: list[list[int]] = [[] for _ in range(m)]
        for i, sup in enumerate(supports):
            for k, _ in sup:
                meeting[k].append(i)
        seen = {a: tuple(int(j == i) for j in range(l)) for i, a in enumerate(simple)}
        frontier = list(simple)
        while frontier:
            beta = frontier.pop()
            coords = seen[beta]
            near: set[int] = set()
            for k in compress(range(m), beta):
                near.update(meeting[k])
            for i in near:
                c = _coroot_pairing(beta, supports[i], norms[i])
                if c == 0 or coords[i] < c:  # zero pairing, or s_i(alpha_i) < 0
                    continue
                new = list(beta)
                for k, x in supports[i]:
                    new[k] -= c * x
                new = tuple(new)
                if new not in seen:
                    seen[new] = coords[:i] + (coords[i] - c,) + coords[i + 1:]
                    frontier.append(new)
    positive = tuple(sorted(seen))
    if 2 * len(positive) != t.dim - l:
        raise ConstraintError(f"{t} realized with {len(positive)} positive roots")
    return RootSystem(
        stype=t,
        ambient_dim=m,
        simple_roots=tuple(simple),
        positive_roots=positive,
        positive_coords=tuple(seen[r] for r in positive),
        simple_norms=norms,
    )


def highest_root(rs: RootSystem) -> Vector:
    """The dominant long root: the one positive root of greatest height."""
    heights = [sum(c) for c in rs.positive_coords]
    return rs.positive_roots[heights.index(max(heights))]


def k_value(rs: RootSystem, long_root: Vector | None = None) -> int:
    """Sum of <beta, alpha^vee>^2 over all roots, for a long root alpha.

    The value does not depend on which long root is chosen; by default the
    highest root is used.  beta and -beta give the same term, so the sum
    runs over the positive roots and is doubled.
    """
    alpha = highest_root(rs) if long_root is None else long_root
    aa = dot(alpha, alpha)
    if aa != max(rs.simple_norms):  # the longest simple root is long
        raise ConstraintError("k_value requires a long root")
    total = 2 * sum((2 * dot(beta, alpha)) ** 2 for beta in rs.positive_roots)
    value = Fraction(total, aa * aa)
    if value.denominator != 1:
        raise ConstraintError("non-integral k value")
    return int(value)


def weyl_dim(rs: RootSystem, coeffs) -> int:
    """Dimension of the irreducible module with the given dominant weight.

    `coeffs` are the coordinates in the fundamental-weight basis; they must
    be nonnegative integers.  Weyl's formula
    prod_{beta>0} (lambda + rho, beta) / (rho, beta) reads, for
    beta = sum_i c_i alpha_i, prod sum_i c_i n_i (lambda_i + 1) over
    prod sum_i c_i n_i with n_i = |alpha_i|^2.
    """
    if len(coeffs) != rs.rank:
        raise DimensionError(f"{len(coeffs)} coefficients for rank {rs.rank}")
    for c in coeffs:
        if Fraction(c).denominator != 1 or c < 0:
            raise ConstraintError(f"weight {tuple(coeffs)} is not dominant integral")
    shifted = [n * (int(c) + 1) for n, c in zip(rs.simple_norms, coeffs)]
    num = den = 1
    for beta in rs.positive_coords:
        num *= sum(map(mul, beta, shifted))
        den *= sum(map(mul, beta, rs.simple_norms))
    if num % den:
        raise ConstraintError("Weyl dimension came out non-integral")
    return num // den


def dual_weight_permutation(t: SimpleType) -> tuple[int, ...]:
    """0-based permutation d with  (pi_i)* = pi_{d(i)}  (dual highest weight)."""
    l = t.rank
    if t.series == "A":
        return tuple(l - 1 - i for i in range(l))
    if t.series == "D" and l % 2 == 1:
        p = list(range(l))
        p[l - 2], p[l - 1] = p[l - 1], p[l - 2]
        return tuple(p)
    if (t.series, l) == ("E", 6):
        return (4, 3, 2, 1, 0, 5)
    return tuple(range(l))
