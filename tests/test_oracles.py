"""Independent combinatorial oracles for the encoded table rows.

For fundamental weights realized on exterior powers of the defining module,
invariant dimensions under block subalgebras reduce to binomial counting:
restricted to a block plus trivials, an exterior power decomposes as
Lambda^i(C^k + triv^(n-k)) = sum_j Lambda^j C^k x Lambda^(i-j)(triv), and a
simple block contributes invariants only at j = 0 and j = k (top power),
while a symplectic block contributes the powers of its invariant two-form.
These counts pin down exactly which fundamental weights appear in the
computed spaces, independently of the stored generator lists.
"""

import math

from cartanspaces.catalog import HItem, ReductivePair
from cartanspaces.engine import cartan_space
from cartanspaces.ratlinalg import member
from cartanspaces.rootsystems import sl, so, sp
from references import vec


def comb(n, k):
    return math.comb(n, k) if 0 <= k <= n else 0


def _unit(n, i):
    v = [0] * n
    v[i - 1] = 1
    return vec(v)


def test_corner_row_agrees_with_exterior_power_invariants():
    # h = sl(k) block in sl(n): Lambda^i C^n has an invariant iff
    # C(n-k, i) + C(n-k, i-k) > 0, i.e. i <= n-k or i >= k
    for (n, k) in [(8, 5), (9, 5), (9, 6), (7, 5), (10, 6), (12, 7)]:
        pair = ReductivePair((sl(n),), 0, (HItem("sl", k, (0,)),))
        space = cartan_space(pair).space
        for i in range(1, n):
            inv_dim = comb(n - k, i) + comb(n - k, i - k)
            assert member(space, _unit(n - 1, i)) == (inv_dim > 0), (n, k, i)


def test_symplectic_row_agrees_with_form_power_invariants():
    # h = sp(2n) in sl(2n): the invariants of Lambda^i C^(2n) are spanned by
    # the powers of the symplectic form, so exactly the even i below 2n
    for n in [2, 3, 4, 5]:
        pair = ReductivePair((sl(2 * n),), 0, (HItem("sp", 2 * n, (0,)),))
        space = cartan_space(pair).space
        for i in range(1, 2 * n):
            assert member(space, _unit(2 * n - 1, i)) == (i % 2 == 0), (n, i)


def test_odd_symplectic_family_agrees_with_invariants():
    # h = sp(2n) in sl(2n+1): Lambda^i(C^(2n) + triv) always contains an
    # invariant (form powers tensored with the trivial line), so the bare
    # space is everything
    for n in [2, 3]:
        pair = ReductivePair((sl(2 * n + 1),), 0, (HItem("sp", 2 * n, (0,)),))
        space = cartan_space(pair).space
        for i in range(1, 2 * n + 1):
            wedge_inv = sum(1 for j in (i, i - 1) if 0 <= j <= 2 * n and j % 2 == 0)
            assert wedge_inv > 0
            assert member(space, _unit(2 * n, i)), (n, i)


def test_orthogonal_corner_rows_agree_with_invariants():
    # h = so(k) block in so(n): Lambda^i C^n restricted to the block has an
    # invariant iff i <= n-k (the top-power invariant would need i >= k,
    # beyond the exterior-power fundamental weights); spinor-node weights
    # never restrict trivially for k > (n+2)/2
    cases = [(9, 7), (11, 8), (12, 8), (13, 9)]
    for (n, k) in cases:
        pair = ReductivePair((so(n),), 0, (HItem("so", k, (0,)),))
        space = cartan_space(pair).space
        rank = so(n).rank
        wedge_top = rank - 2 if n % 2 == 0 else rank - 1
        for i in range(1, wedge_top + 1):
            inv_dim = comb(n - k, i) + comb(n - k, i - k)
            assert member(space, _unit(rank, i)) == (inv_dim > 0), (n, k, i)
        # spinor-type nodes are never in the space for these rows
        for i in range(wedge_top + 1, rank + 1):
            assert not member(space, _unit(rank, i)), (n, k, i)


def test_symplectic_corner_rows_agree_with_invariants():
    # h = sp(2k) block in sp(2n): the fundamental module at node i is the
    # primitive part of Lambda^i C^(2n); restricted to the block plus
    # trivials, invariants exist exactly for i <= 2(n-k)
    for (n, k) in [(3, 2), (4, 3), (5, 3), (6, 4)]:
        pair = ReductivePair((sp(2 * n),), 0, (HItem("sp", 2 * k, (0,)),))
        space = cartan_space(pair).space
        for i in range(1, n + 1):
            assert member(space, _unit(n, i)) == (i <= 2 * (n - k)), (n, k, i)
