import random
from fractions import Fraction

import pytest

from cartanspaces.errors import ContractError, DimensionError
from cartanspaces.ratlinalg import (
    RationalSubspace,
    annihilator_preimage,
    combine,
    dot,
    kernel_basis,
    member,
    rref,
    span,
)
from references import vec


def test_span_empty_is_zero():
    s = span([], 3)
    assert s.dim == 0 and s.ambient_dim == 3


def test_span_two_vectors():
    s = span([(1, 0, 0), (1, 1, 0)], 3)
    assert s.dim == 2


def test_span_idempotent_and_canonical():
    s1 = span([(1, 2, 3), (4, 5, 6), (7, 8, 9)], 3)
    s2 = span(s1.basis, 3)
    assert s1 == s2
    # same subspace from a different generating set gives the same basis
    s3 = span([(5, 7, 9), (1, 2, 3), (3, 3, 3)], 3)
    assert s1.basis == s3.basis


def test_ragged_input_raises():
    with pytest.raises(DimensionError):
        span([(1, 0), (1, 0, 0)], 3)


def test_member():
    s = span([(1, 0, 1), (0, 1, 1)], 3)
    assert member(s, (1, 1, 2))
    assert not member(s, (1, 1, 1))
    with pytest.raises(DimensionError):
        member(s, (1, 0))


def test_annihilator_preimage_endpoints():
    space = span([(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)], 4)
    quot = span([(1, 1, 0, 0)], 4)
    assert annihilator_preimage(space, quot, []) == space
    # functionals spanning the dual of space/quot cut back to quot
    f1 = vec((1, -1, 0, 0))
    f2 = vec((0, 0, 1, 0))
    assert annihilator_preimage(space, quot, [f1, f2]) == quot


def test_annihilator_preimage_sandwich():
    rng = random.Random(11)
    for _ in range(40):
        n = rng.randint(2, 5)
        space = span([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)], n)
        if space.dim < 2:
            continue
        quot = span([space.basis[0]], n)
        coeffs = [rng.randint(-3, 3) for _ in range(n)]
        # project the functional so it vanishes on the quotient generator
        b = quot.basis[0]
        val = sum(Fraction(c) * x for c, x in zip(coeffs, b))
        norm = sum(x * x for x in b)
        f = tuple(Fraction(c) - val * x / norm for c, x in zip(coeffs, b))
        result = annihilator_preimage(space, quot, [f])
        assert space.contains(result) and result.contains(quot)


def test_annihilator_preimage_contract_violation():
    space = span([(1, 0, 0), (0, 1, 0), (0, 0, 1)], 3)
    quot = span([(1, 0, 0)], 3)
    bad = vec((1, 1, 0))  # does not vanish on the quotient
    with pytest.raises(ContractError):
        annihilator_preimage(space, quot, [bad])
    with pytest.raises(ContractError):
        annihilator_preimage(span([(0, 1, 0)], 3), quot, [])  # quot not inside


def test_annihilator_preimage_table_slice():
    # the n=5, k=3 member of the corner family: the full space is all of Q^4
    # (coordinates on pi_1..pi_4), the cut is x1 + 2 x2 - 2 x3 - x4 = 0
    space = span([(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)], 4)
    quot = span([(1, 0, 0, 1), (0, 1, 1, 0), (2, 0, 1, 0)], 4)
    f = vec((1, 2, -2, -1))
    result = annihilator_preimage(space, span([], 4), [f])
    assert result.dim == 3
    for b in quot.basis:
        assert dot(f, b) == 0
    assert result.contains(quot)


# ---------------------------------------------------------------------------
# Reference: the dense Fraction elimination the module ran before it went
# fraction-free.  `ref_rref` is kept verbatim; the other functions are the
# former bodies, calling it (`annihilator_preimage` without its contract
# checks, which the tests above cover).
# ---------------------------------------------------------------------------

def ref_rref(rows, width):
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


def ref_span(vectors, n):
    basis, _ = ref_rref([vec(v) for v in vectors], n)
    return RationalSubspace(n, tuple(tuple(r) for r in basis))


def ref_member(space, v):
    w = list(vec(v))
    for b in space.basis:
        p = next(i for i, x in enumerate(b) if x != 0)
        if w[p] != 0:
            f = w[p]
            w = [x - f * y for x, y in zip(w, b)]
    return all(x == 0 for x in w)


def ref_kernel_basis(rows, width):
    m, pivots = ref_rref(rows, width)
    basis = []
    for fc in [c for c in range(width) if c not in pivots]:
        x = [Fraction(0)] * width
        x[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            x[pc] = -m[r][fc]
        basis.append(tuple(x))
    return basis


def ref_combine(coeffs, vectors, n):
    v = [Fraction(0)] * n
    for c, u in zip(coeffs, vectors):
        if c:
            v = [x + c * y for x, y in zip(v, u)]
    return tuple(v)


def ref_kernel_span(rows, basis, n):
    return ref_span([ref_combine(t, basis, n) for t in ref_kernel_basis(rows, len(rows[0]))], n)


def ref_annihilator_preimage(space, quotient_by, functionals):
    if not functionals or space.dim == 0:
        return space
    rows = [[dot(f, b) for b in space.basis] for f in functionals]
    return ref_kernel_span(rows, space.basis, space.ambient_dim)


def _exact(rows):
    """The rows as nested tuples, failing on any entry that is not a Fraction."""
    for row in rows:
        for x in row:
            assert type(x) is Fraction, (x, type(x))
    return tuple(tuple(row) for row in rows)


def _random_matrix(rng, width, fractions):
    """Rows of mixed density with small entries, some zero and some repeated."""
    def entry():
        if rng.random() < 0.4:
            return 0
        if fractions and rng.random() < 0.5:
            return Fraction(rng.randint(-9, 9), rng.randint(1, 8))
        return rng.randint(-6, 6)
    rows = [[entry() for _ in range(width)] for _ in range(rng.randint(0, width + 2))]
    if rng.random() < 0.3:
        rows.append([0] * width)
    if rows and rng.random() < 0.3:
        rows.append(list(rng.choice(rows)))
    rng.shuffle(rows)
    return rows


def _compare(rows, width, rng):
    """Every function of the module on this matrix, against the reference."""
    got, pivots = rref(rows, width)
    want, want_pivots = ref_rref(rows, width)
    assert _exact(got) == _exact(want) and pivots == want_pivots
    assert _exact(kernel_basis(rows, width)) == _exact(ref_kernel_basis(rows, width))
    space = span(rows, width)
    assert space == ref_span(rows, width)
    _exact(space.basis)
    # members: combinations of the rows; probes: random vectors
    for _ in range(3):
        coeffs = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in rows]
        inside = combine(coeffs, rows, width)
        assert _exact([inside]) == _exact([ref_combine(coeffs, rows, width)])
        assert member(space, inside)
        probe = [rng.randint(-2, 2) for _ in range(width)]
        assert member(space, probe) == ref_member(space, probe)
    # a quotient inside the space and functionals that vanish on it
    quotient = span(space.basis[: rng.randint(0, space.dim)], width)
    annihilators = kernel_basis(quotient.basis, width)
    functionals = [combine([rng.randint(-3, 3) for _ in annihilators], annihilators, width)
                   for _ in range(rng.randint(0, 3))]
    got = annihilator_preimage(space, quotient, functionals)
    assert got == ref_annihilator_preimage(space, quotient, functionals)
    _exact(got.basis)
    assert got.contains(quotient) and space.contains(got)


@pytest.mark.parametrize("width", range(13))
def test_fraction_free_elimination_matches_reference(width):
    rng = random.Random(1000 + width)
    for k in range(25):
        _compare(_random_matrix(rng, width, fractions=k % 2 == 1), width, rng)


def test_fraction_free_elimination_matches_reference_at_the_rank_ceiling():
    # the shape of the large central pairs: unit weight vectors, a few cut
    # rows c(i) = i over a run of coordinates, and central rows
    rng = random.Random(129)
    n = 129

    def structured():
        units = [[int(c == j) for c in range(n)] for j in rng.sample(range(n), 60)]
        start = rng.randrange(n - 40)
        cuts = [[(c - start) * s if start <= c < start + 40 else 0 for c in range(n)]
                for s in (1, -2)]
        central = [[Fraction(rng.randint(-5, 5), 7) if c in (0, n - 2, n - 1) else 0
                    for c in range(n)] for _ in range(2)]
        rows = units + cuts + central
        rng.shuffle(rows)
        return rows

    for _ in range(2):
        _compare(structured(), n, rng)
