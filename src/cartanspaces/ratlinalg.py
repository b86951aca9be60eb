"""Exact linear algebra over the rationals, on plain coordinate vectors.

A subspace is stored through its reduced row-echelon basis: pivot entries
are 1, each pivot column is cleared above and below, rows are ordered by
pivot column and zero rows are dropped.  That form is unique, so equal
subspaces always carry identical bases and compare equal structurally.
No floating point is used anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import ContractError, DimensionError

Vector = tuple[Fraction, ...]


def vec(entries: Iterable) -> Vector:
    return tuple(Fraction(x) for x in entries)


def zero_vec(n: int) -> Vector:
    return (Fraction(0),) * n


def dot(u: Vector, v: Vector):
    """Exact inner product; stays in int when both vectors are integral."""
    if len(u) != len(v):
        raise DimensionError(f"dot of vectors of length {len(u)} and {len(v)}")
    return sum(a * b for a, b in zip(u, v))


def rref(rows: Sequence[Sequence[Fraction]], width: int) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form; returns (nonzero rows, pivot columns)."""
    m = [list(map(Fraction, r)) for r in rows]
    for r in m:
        if len(r) != width:
            raise DimensionError(f"row of length {len(r)} in ambient of dimension {width}")
    pivots: list[int] = []
    r = 0
    for c in range(width):
        pr = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return [row for row in m[:r]], pivots


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
        return all(member(self, b) for b in other.basis)


def span(vectors: Iterable[Sequence], ambient_dim: int) -> RationalSubspace:
    rows = [vec(v) for v in vectors]
    basis, _ = rref(rows, ambient_dim)
    return RationalSubspace(ambient_dim, tuple(tuple(r) for r in basis))


def full_space(ambient_dim: int) -> RationalSubspace:
    eye = [tuple(Fraction(int(i == j)) for j in range(ambient_dim)) for i in range(ambient_dim)]
    return RationalSubspace(ambient_dim, tuple(eye))


def zero_space(ambient_dim: int) -> RationalSubspace:
    return RationalSubspace(ambient_dim, ())


def member(space: RationalSubspace, v: Sequence) -> bool:
    w = list(vec(v))
    if len(w) != space.ambient_dim:
        raise DimensionError(f"vector of length {len(w)} in ambient of dimension {space.ambient_dim}")
    for b in space.basis:
        p = next(i for i, x in enumerate(b) if x != 0)  # pivot = first nonzero, equals 1
        if w[p] != 0:
            f = w[p]
            w = [x - f * y for x, y in zip(w, b)]
    return all(x == 0 for x in w)


def subspace_sum(a: RationalSubspace, b: RationalSubspace) -> RationalSubspace:
    if a.ambient_dim != b.ambient_dim:
        raise DimensionError("ambient dimensions differ")
    return span(list(a.basis) + list(b.basis), a.ambient_dim)


def intersect(a: RationalSubspace, b: RationalSubspace) -> RationalSubspace:
    """Intersection via the kernel of the stacked coefficient system."""
    if a.ambient_dim != b.ambient_dim:
        raise DimensionError("ambient dimensions differ")
    n = a.ambient_dim
    if a.dim == 0 or b.dim == 0:
        return zero_space(n)
    # Unknowns (x, y) with sum x_i a_i = sum y_j b_j; one equation per coordinate.
    rows = [[u[c] for u in a.basis] + [-u[c] for u in b.basis] for c in range(n)]
    return _kernel_span(rows, a.basis, n)


def kernel_basis(rows: Sequence[Sequence[Fraction]], width: int) -> list[Vector]:
    """Basis of {x : M x = 0} for the matrix with the given rows."""
    m, pivots = rref(rows, width)
    free = [c for c in range(width) if c not in pivots]
    basis = []
    for fc in free:
        x = [Fraction(0)] * width
        x[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            x[pc] = -m[r][fc]
        basis.append(tuple(x))
    return basis


def combine(coeffs: Sequence, vectors: Sequence[Vector], n: int) -> Vector:
    """sum_i coeffs[i] * vectors[i] in Q^n; extra coefficients are ignored."""
    v = [Fraction(0)] * n
    for c, u in zip(coeffs, vectors):
        if c:
            v = [x + c * y for x, y in zip(v, u)]
    return tuple(v)


def _kernel_span(rows: Sequence[Sequence[Fraction]], basis: Sequence[Vector],
                 n: int) -> RationalSubspace:
    """Span of the combinations of `basis` whose coefficients solve `rows`.

    Each row has one column per unknown; the unknowns past `basis` are
    solved for but do not enter the combination.
    """
    return span([combine(t, basis, n) for t in kernel_basis(rows, len(rows[0]))], n)


@dataclass(frozen=True)
class LinearFunctional:
    """A covector on the ambient space, evaluated by the dot product."""

    coeffs: Vector

    def __call__(self, v: Sequence) -> Fraction:
        return dot(self.coeffs, vec(v))

    @property
    def ambient_dim(self) -> int:
        return len(self.coeffs)


def annihilator_preimage(
    space: RationalSubspace,
    quotient_by: RationalSubspace,
    functionals: Sequence[LinearFunctional],
) -> RationalSubspace:
    """Cut `space` by the functionals, checking they respect the quotient.

    Returns {v in space : f(v) = 0 for all f}.  Each functional must vanish
    on `quotient_by` (which must lie inside `space`); violation means the
    stored table data feeding the functional is corrupt, so it raises
    ContractError rather than returning a wrong space.
    """
    n = space.ambient_dim
    if quotient_by.ambient_dim != n:
        raise DimensionError("quotient ambient differs from space ambient")
    if not space.contains(quotient_by):
        raise ContractError("quotient subspace is not contained in the given space")
    for f in functionals:
        if f.ambient_dim != n:
            raise DimensionError("functional ambient differs from space ambient")
        for b in quotient_by.basis:
            if f(b) != 0:
                raise ContractError("functional does not annihilate the quotient subspace")
    if not functionals or space.dim == 0:
        return space
    return _kernel_span([[f(b) for b in space.basis] for f in functionals], space.basis, n)
