"""Exact linear algebra over the rationals, on plain coordinate vectors.

A subspace is stored through its reduced row-echelon basis: pivot entries
are 1, each pivot column is cleared above and below, rows are ordered by
pivot column and zero rows are dropped.  That form is unique, so equal
subspaces always carry identical bases and compare equal structurally.
Elimination is fraction-free (after Bareiss, Math. Comp. 22, 1968): rows
are scaled by the lcm of their denominators into ints, an update is
p*row_i - a*row_r divided by the gcd of its entries, and only the final
rows are divided by their pivots into the Fractions of a stored basis.
No floating point is used anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

from .errors import ContractError, DimensionError

Vector = tuple[Fraction, ...]
_UNIT = (Fraction(0), Fraction(1))


def vec(entries: Iterable) -> Vector:
    return tuple(Fraction(x) for x in entries)


def dot(u: Vector, v: Vector):
    """Exact inner product; stays in int when both vectors are integral."""
    if len(u) != len(v):
        raise DimensionError(f"dot of vectors of length {len(u)} and {len(v)}")
    return sum(a * b for a, b in zip(u, v))


def _integral(rows: Iterable[Sequence], width: int):
    """Each row as (d, d * row) in ints, d the lcm of the row's denominators."""
    for r in rows:
        if len(r) != width:
            raise DimensionError(f"row of length {len(r)} in ambient of dimension {width}")
        d = lcm(*(x.denominator for x in r))
        yield d, [x.numerator * (d // x.denominator) for x in r]


def _clear(row: list[int], top: list[int], c: int) -> list[int]:
    """p*row - a*top, p/a = top[c]/row[c] in lowest terms, over its entries' gcd."""
    g = gcd(top[c], row[c])
    p, a = top[c] // g, row[c] // g
    row = [p * x - a * y for x, y in zip(row, top)]
    g = gcd(*row)
    return [x // g for x in row] if g > 1 else row


def rref(rows: Sequence[Sequence[Fraction]], width: int) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form; returns (nonzero rows, pivot columns)."""
    m = [r for _, r in _integral(rows, width)]
    pivots: list[int] = []
    for c in range(width):
        r = len(pivots)
        pr = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        m = [_clear(row, m[r], c) if row[c] and i != r else row for i, row in enumerate(m)]
        pivots.append(c)
    return [[Fraction(x, row[c]) if x else _UNIT[0] for x in row]
            for row, c in zip(m, pivots)], pivots


@dataclass(frozen=True)
class RationalSubspace:
    """A linear subspace of Q^ambient_dim in canonical reduced form."""

    ambient_dim: int
    basis: tuple[Vector, ...]

    @property
    def dim(self) -> int:
        return len(self.basis)

    def contains(self, other: "RationalSubspace") -> bool:
        if other.ambient_dim != self.ambient_dim:
            raise DimensionError("ambient dimensions differ")
        return member(self, *other.basis)


def span(vectors: Iterable[Sequence], ambient_dim: int) -> RationalSubspace:
    basis, _ = rref(list(vectors), ambient_dim)
    return RationalSubspace(ambient_dim, tuple(map(tuple, basis)))


def member(space: RationalSubspace, *vectors: Sequence) -> bool:
    """Whether every vector lies in `space`: cleared on the basis pivots, it vanishes."""
    basis = [(b, next(i for i, x in enumerate(b) if x))
             for _, b in _integral(space.basis, space.ambient_dim)]
    for _, w in _integral(vectors, space.ambient_dim):
        for b, p in basis:
            if w[p]:
                w = _clear(w, b, p)
        if any(w):
            return False
    return True


def kernel_basis(rows: Sequence[Sequence[Fraction]], width: int) -> list[Vector]:
    """Basis of {x : M x = 0} for the matrix with the given rows."""
    m, pivots = rref(rows, width)
    at = dict(zip(pivots, m))
    return [tuple(-at[c][fc] if c in at else _UNIT[c == fc] for c in range(width))
            for fc in range(width) if fc not in at]


def combine(coeffs: Sequence, vectors: Sequence[Sequence], n: int) -> Vector:
    """sum_i coeffs[i] * vectors[i] in Q^n; extra coefficients are ignored."""
    v, den = _combination(coeffs, vectors, n)
    return tuple(Fraction(x, den) for x in v)


def _combination(coeffs: Sequence, vectors: Sequence[Sequence], n: int) -> tuple[list[int], int]:
    """combine() as integer numerators over one denominator."""
    terms = [(c, u) for c, u in zip(coeffs, vectors) if c]
    scaled = _integral([u for _, u in terms], n)
    terms = [(Fraction(c) / d, r) for (c, _), (d, r) in zip(terms, scaled)]
    den = lcm(*(c.denominator for c, _ in terms))
    v = [0] * n
    for c, r in terms:
        k = c.numerator * (den // c.denominator)
        v = [x + k * y for x, y in zip(v, r)]
    return v, den


def annihilator_preimage(space: RationalSubspace, quotient_by: RationalSubspace,
                         covectors: Sequence[Sequence]) -> RationalSubspace:
    """`space` cut by covectors vanishing on `quotient_by`; for benchmark/tracer.py and tests."""
    n = space.ambient_dim
    if not space.contains(quotient_by):
        raise ContractError("quotient subspace is not contained in the given space")
    covectors = [r for _, r in _integral(covectors, n)]
    quotient = [r for _, r in _integral(quotient_by.basis, n)]
    if any(dot(f, b) for f in covectors for b in quotient):
        raise ContractError("functional does not annihilate the quotient subspace")
    if not covectors or space.dim == 0:
        return space
    basis = [r for _, r in _integral(space.basis, n)]
    rows = [[dot(f, b) for b in basis] for f in covectors]
    return span([_combination(t, basis, n)[0] for t in kernel_basis(rows, len(basis))], n)
