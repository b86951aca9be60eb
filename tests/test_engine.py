import time
from fractions import Fraction as Q

import pytest

from cartanspaces.catalog import HItem, ReductivePair, get_catalog, lookup, solve_alpha
from cartanspaces.cli import parse_pair, survey_pairs
from cartanspaces.engine import (
    Twist,
    alpha_functional,
    cartan_space,
    decompose,
    essential_pair,
    essential_part,
    levi_centralizer_dim,
    twist,
)
from cartanspaces.errors import CartanError, ConstraintError, OutsideCatalogError
from cartanspaces.ratlinalg import annihilator_preimage, combine, dot, member, span, vec
from cartanspaces.rootsystems import SimpleType, build_root_system, sl, so, sp


def pair_of(*factors, items=(), center=None, center_dim=0):
    return ReductivePair(tuple(factors), center_dim, tuple(items), center)


FULL_Z = span([[1]], 1)


def test_decompose_counts():
    p = pair_of(sl(6), items=[HItem("sp", 6, (0,))])
    assert len(decompose(p)) == 1

    p = pair_of(sl(4), sp(6), items=[
        HItem("sp", 4, (0,)), HItem("sl", 2, (1,)), HItem("sl", 2, (1,)), HItem("sl", 2, (1,))])
    parts = decompose(p)
    assert len(parts) == 2
    assert parts[0].factors == (sl(4),) and parts[1].factors == (sp(6),)

    p = pair_of(SimpleType("A", 2), SimpleType("A", 2),
                items=[HItem("diag", None, (0, 1), SimpleType("A", 2))])
    assert len(decompose(p)) == 1


def test_decompose_with_central_ties():
    # one diagonal central line ties two corner families together
    center = span([[1, 1]], 2)
    p = pair_of(sl(7), sl(7), items=[HItem("sl", 4, (0,)), HItem("sl", 4, (1,))], center=center)
    assert len(decompose(p)) == 1
    # two independent central lines split
    center = span([[1, 0], [0, 1]], 2)
    p = pair_of(sl(7), sl(7), items=[HItem("sl", 4, (0,)), HItem("sl", 4, (1,))], center=center)
    parts = decompose(p)
    assert len(parts) == 2
    assert all(part.center is not None and part.center.dim == 1 for part in parts)


def test_cartan_space_semisimple_rows():
    res = cartan_space(pair_of(sl(6), items=[HItem("sp", 6, (0,))]))
    assert res.rank == 2
    assert set(res.space.basis) == {vec((0, 1, 0, 0, 0)), vec((0, 0, 0, 1, 0))}
    assert res.trace == ("T1.4:3(n=3)",)
    assert res.essential.items == (HItem("sp", 6, (0,)),)

    res = cartan_space(pair_of(SimpleType("E", 6), items=[HItem("so", 10, (0,))]))
    assert res.rank == 3
    assert set(res.space.basis) == {
        vec((1, 0, 0, 0, 0, 0)), vec((0, 0, 0, 0, 1, 0)), vec((0, 0, 0, 0, 0, 1))}

    res = cartan_space(pair_of(SimpleType("E", 7), items=[HItem("e6", None, (0,))]))
    assert res.rank == 3


def test_cartan_space_saturated_family():
    res = cartan_space(pair_of(SimpleType("E", 6), items=[HItem("so", 10, (0,))], center=FULL_Z))
    assert res.rank == 2
    assert set(res.space.basis) == {vec((1, 0, 0, 0, 1, 0)), vec((0, 0, 0, 0, 0, 1))}


def test_essential_part_cases():
    p = pair_of(sl(6), items=[HItem("sp", 6, (0,))])
    assert essential_part(p).items == p.items

    # direct sums assemble blockwise
    p = pair_of(sl(6), sp(6), items=[HItem("sp", 6, (0,)), HItem("sp", 4, (1,)), HItem("sl", 2, (1,))])
    ess = essential_part(p)
    assert len(ess.items) == 3

    # bare boundary member: the essential part collapses
    p = pair_of(sl(5), items=[HItem("sl", 3, (0,))])
    ess = essential_part(p)
    assert ess.items == () and ess.describe() == "0"

    with pytest.raises(OutsideCatalogError):
        essential_part(pair_of(sl(5), items=[HItem("sl", 2, (0,))]))


def test_essential_idempotence():
    pairs = [
        pair_of(sl(6), items=[HItem("sp", 6, (0,))]),
        pair_of(sl(5), items=[HItem("sl", 3, (0,))]),
        pair_of(sl(5), items=[HItem("sp", 4, (0,))]),
        pair_of(sl(5), items=[HItem("sl", 3, (0,))], center=FULL_Z),
        pair_of(so(10), items=[HItem("sl", 5, (0,))], center=FULL_Z),
    ]
    for p in pairs:
        res = cartan_space(p)
        again = cartan_space(essential_pair(p))
        assert again.space == res.space, p


def test_center_partial_subspace():
    # two corner families tied by an antidiagonal central line
    center = span([[1, -1]], 2)
    p = pair_of(sl(7), sl(7), items=[HItem("sl", 4, (0,)), HItem("sl", 4, (1,))], center=center)
    res = cartan_space(p)
    # the full space has dimension 6+6, one functional cuts one dimension
    assert res.rank == 11
    ess = res.essential
    assert len(ess.items) == 2 and len(ess.center_rows) == 1


def test_center_through_ambient_torus():
    # central part tying the ambient torus to a family generator
    center = span([[1, 1]], 2)  # z0 + pi_v
    p = ReductivePair((sl(5),), 1, (HItem("sl", 3, (0,)),), center)
    res = cartan_space(p)
    # full block is 4 + 1 central coordinate; one cut
    assert res.rank == 4
    assert res.space.ambient_dim == 5


def _former_cut(pair: ReductivePair):
    """The space of a central pair whose every factor carries a family row,
    cut as it once was: a(g_f, h_f) of each factor (from T1.4) plus the z0
    block, cut in the whole weight ambient by the duality covectors of the
    central rows, and checked to contain every saturated space."""
    n, cd = pair.weight_ambient, pair.center_dim
    assert list(pair.families) == list(range(len(pair.factors)))

    def moved(vectors, cols):
        return [tuple(dict(zip(cols, v)).get(c, 0) for c in range(n)) for v in vectors]

    z0 = moved([[int(i == j) for i in range(cd)] for j in range(cd)], range(pair.rank_g, n))
    space, sat, covectors = list(z0), [], list(z0)
    for f, inst in pair.families.items():
        full = get_catalog().bare_space(inst.g_types[0], inst.items)
        space += moved(full.basis, pair.columns(f))
        sat += moved(inst.aux["sat"].basis, pair.columns(f))
        covectors += moved([solve_alpha(inst)], pair.columns(f))
    cuts = [combine(row, covectors, n) for row in pair.center.basis]
    return annihilator_preimage(span(space, n), span(sat, n), cuts)


_CENTRAL_TEXTS = [
    "sl(9)+sl(9)/sl(6) in 1+sl(6) in 2+z=[pi_v(3)@1;pi_v(3)@2]",
    "sl(9)+sl(9)/sl(6) in 1+sl(6) in 2+z=[pi_v(3)@1+-1*pi_v(3)@2]",
    "sl(12)+sl(7)+center(1)/sl(7) in 1+sp(6) in 2+z=[pi_v(5)@1+z0(1);pi_v(1)@2+-2*z0(1)]",
    "sl(5)+center(1)/sl(3)+z=[z0(1)+pi_v(2)]",
    "sl(5)+center(2)/sl(3)+z=[z0(1)+pi_v(2);z0(2)]",
    "sl(7)+center(1)/sl(4)+sl(3)+z=[2*z0(1)+pi_v(3)]",
    "E6+center(2)/so(10)+z=[z0(1)+z0(2)+3/4*pi_v(1)]",
    "so(10)+E6/sl(5) in 1+so(10) in 2+z=[pi_v(5)@1+3/2*pi_v(1)@2]",
    "sl(7)+sl(11)/sl(4) in 1+sl(3) in 1+sl(6) in 2+sl(5) in 2+z=[pi_v(3)@1+-1*pi_v(5)@2]",
    "sl(11)+sl(11)+center(1)/sp(10) in 1+sl(7) in 2+z=[pi_v(1)@1+pi_v(4)@2+z0(1)]",
    "so(14)+so(10)/sl(7) in 1+sl(5) in 2+z=[pi_v(7)@1;pi_v(5)@2]",
    "sl(5)+sl(5)+sl(5)/sl(3) in 1+sl(3) in 2+sl(3) in 3+z=[pi_v(2)@1+pi_v(2)@2+pi_v(2)@3]",
]


def test_central_answers_equal_the_former_cut():
    # the engine answers in the quotient a(g, h)/sat, on the z0 and lam
    # directions; the dense cut in the whole ambient stays the reference
    pairs = [pair for (table, _, _), pair, _ in survey_pairs(12) if table == "T1.6"]
    assert len(pairs) == 72
    pairs += [parse_pair(text) for text in _CENTRAL_TEXTS]
    for pair in pairs:
        assert cartan_space(pair).space == _former_cut(pair), pair


def test_alpha_functional_values():
    e = lookup("T1.6", 1)
    fn = alpha_functional(e, {"n": 5, "k": 3})
    assert dot(fn, vec((1, 0, 0, 0))) == Q(3, 5)
    # scaling is linear, zero gives the zero functional
    fn2 = alpha_functional(e, {"n": 5, "k": 3}, scale=Q(2))
    assert dot(fn2, vec((1, 0, 0, 0))) == Q(6, 5)
    fn0 = alpha_functional(e, {"n": 5, "k": 3}, scale=0)
    assert all(c == 0 for c in fn0)

    e4 = lookup("T1.6", 4)
    fn = alpha_functional(e4, {"n": 2})
    lam = vec((0, 0, 0, 0, 1))
    assert dot(fn, lam) == Q(5, 2)


def test_alpha_row1_matches_central_action_on_all_weights():
    # the central generator acts on the i-th weight by i*k/n below the corner
    # and by (i-n)*k/n above it
    e = lookup("T1.6", 1)
    for (n, k) in [(5, 3), (7, 4), (9, 5)]:
        fn = alpha_functional(e, {"n": n, "k": k})
        for i in range(1, n - k + 1):
            v = [0] * (n - 1)
            v[i - 1] = 1
            assert dot(fn, vec(v)) == Q(i * k, n)
            w = [0] * (n - 1)
            w[n - i - 1] = 1
            assert dot(fn, vec(w)) == Q((n - i - n) * k, n) == -Q(i * k, n)


def test_alpha_row3_even_weight_action():
    # the invariant two-form sits in the second exterior power: the central
    # generator acts there by -2/(2n+1)
    e = lookup("T1.6", 3)
    for n in (2, 3):
        fn = alpha_functional(e, {"n": n})
        v = [0] * (2 * n)
        v[1] = 1
        assert dot(fn, vec(v)) == -Q(2, 2 * n + 1)


def test_levi_centralizer_dims():
    p = pair_of(SimpleType("A", 3), items=[HItem("sl", 4, (0,))])  # h = g, space = 0
    res = cartan_space(p)
    assert res.space.dim == 0
    assert levi_centralizer_dim(p, res.space) == 15

    # full space leaves only the torus
    assert levi_centralizer_dim(p, span([(1, 0, 0), (0, 1, 0), (0, 0, 1)], 3)) == 3

    # <pi_2> inside A3: independent oracle over the twelve roots e_i - e_j
    rs = build_root_system(SimpleType("A", 3))
    pi2 = rs.fundamental_weights[1]
    fixed = sum(1 for beta in rs.roots if dot(beta, pi2) == 0)
    assert 3 + fixed == 7
    assert levi_centralizer_dim(p, span([(0, 1, 0)], 3)) == 7


def test_complexity_values():
    assert cartan_space(pair_of(sl(4), items=[HItem("sp", 4, (0,))])).complexity == 0
    assert cartan_space(pair_of(sp(6), items=[HItem("sl", 2, (0,))] * 3)).complexity == 1
    assert cartan_space(pair_of(SimpleType("F", 4), items=[HItem("so", 8, (0,))])).complexity == 1
    e7 = pair_of(SimpleType("E", 7), items=[HItem("e6", None, (0,))])
    assert cartan_space(e7).complexity == 1


def test_monotonicity_and_strictness_row2_vs_row1():
    big = cartan_space(pair_of(sl(8), items=[HItem("sl", 5, (0,))]))
    small = cartan_space(pair_of(sl(8), items=[HItem("sl", 5, (0,)), HItem("sl", 3, (0,))]))
    assert big.space.contains(small.space)
    assert big.rank > small.rank


def test_monotonicity_bridge_rows():
    whole = cartan_space(pair_of(sp(6), SimpleType("A", 1),
                                 items=[HItem("sp", 4, (0,)), HItem("bridge", None, (0, 1))]))
    dropped = cartan_space(pair_of(sp(6), SimpleType("A", 1), items=[HItem("sp", 4, (0,))]))
    assert dropped.space.contains(whole.space)
    assert dropped.rank > whole.rank

    whole = cartan_space(pair_of(sp(6), sp(8), items=[
        HItem("sp", 4, (0,)), HItem("bridge", None, (0, 1)), HItem("sp", 6, (1,))]))
    dropped = cartan_space(pair_of(sp(6), sp(8), items=[
        HItem("sp", 4, (0,)), HItem("sp", 6, (1,))]))
    assert dropped.space.contains(whole.space)
    assert dropped.rank > whole.rank


def test_diag_strict_against_trivial():
    t = SimpleType("A", 2)
    diag = cartan_space(pair_of(t, t, items=[HItem("diag", None, (0, 1), t)]))
    assert diag.rank == 2
    full = cartan_space(pair_of(t, t, items=[]))
    assert full.rank == 4 and full.space.contains(diag.space)


def test_twist_identity_and_flip():
    p = pair_of(sl(8), items=[HItem("sl", 5, (0,))])
    base = cartan_space(p)
    res = twist(p, Twist((0,), (tuple(range(7)),)))
    assert res.space == base.space

    flip = Twist((0,), ((6, 5, 4, 3, 2, 1, 0),))
    res = twist(p, flip)
    assert res.space == base.space  # the corner space is flip-stable
    assert res.rank == base.rank and res.complexity == base.complexity


def test_twist_triality_on_so8():
    p = pair_of(so(8), items=[HItem("g2", None, (0,))])
    base = cartan_space(p)
    rs = build_root_system(so(8))
    from cartanspaces.rootsystems import diagram_automorphisms

    for perm in diagram_automorphisms(rs):
        res = twist(p, Twist((0,), (perm,)))
        assert res.space == base.space  # <pi_1, pi_3, pi_4> is triality-stable
        assert res.rank == base.rank and res.complexity == base.complexity


def test_twist_factor_swap_on_diagonal():
    t = SimpleType("A", 3)
    p = pair_of(t, t, items=[HItem("diag", None, (0, 1), t)])
    base = cartan_space(p)
    swap = Twist((1, 0), (tuple(range(3)), tuple(range(3))))
    res = twist(p, swap)
    assert res.space == base.space
    assert any("inner classes" in t for t in res.trace)


def test_twist_on_centrally_extended_pair():
    # the flipped corner subalgebra is an inner conjugate, so the computed
    # space must be stable under the chain reversal
    p = pair_of(sl(5), items=[HItem("sl", 3, (0,))], center=FULL_Z)
    base = cartan_space(p)
    flip = Twist((0,), ((3, 2, 1, 0),))
    res = twist(p, flip)
    assert res.space == base.space
    assert res.rank == base.rank and res.complexity == base.complexity


def _answered_so_so():
    """(r, k) for r = 4..12 and every k at which so(2r)/so(k) is answered;
    k = r+1 is the wrong answer of ROADMAP item 1."""
    cases = []
    for r in range(4, 13):
        for k in range(3, 2 * r + 1):
            try:
                cartan_space(pair_of(so(2 * r), items=[HItem("so", k, (0,))]))
            except CartanError:
                continue
            marks = pytest.mark.xfail(
                strict=True, reason="ROADMAP item 1: T1.4:8 at so(2r)/so(r+1)") if k == r + 1 else ()
            cases.append(pytest.param(r, k, marks=marks))
    return cases


@pytest.mark.parametrize("r, k", _answered_so_so())
def test_fork_swap_keeps_the_so_so_space(r, k):
    # a reflection of the complement of so(k) lies in O(2r) but not SO(2r)
    # and centralizes SO(k); it swaps the fork nodes r-1 and r of D_r, so
    # the space must be stable under that swap; no table gives the answer
    p = pair_of(so(2 * r), items=[HItem("so", k, (0,))])
    fork = Twist((0,), (tuple(range(r - 2)) + (r - 1, r - 2),))
    assert twist(p, fork).space == cartan_space(p).space


def test_twist_rejects_bad_input():
    p = pair_of(sl(8), items=[HItem("sl", 5, (0,))])
    with pytest.raises(ConstraintError):
        twist(p, Twist((0,), ((1, 0, 2, 3, 4, 5, 6),)))  # not a diagram symmetry
    p2 = pair_of(sl(8), sl(4), items=[HItem("sl", 5, (0,)), HItem("sl", 3, (1,))])
    with pytest.raises(ConstraintError):
        twist(p2, Twist((1, 0), (tuple(range(7)), tuple(range(3)))))  # non-isomorphic swap
    d5 = pair_of(so(10), items=[HItem("so", 8, (0,))])
    for perm in [(1, 0, 2, 3, 4), (0, 1, 2, 3), (0, 1, 2, 3, 3), (0, 1, 2, 3, 5)]:
        with pytest.raises(ConstraintError, match="is not a diagram symmetry of D5"):
            twist(d5, Twist((0,), (perm,)))


def test_twist_at_the_rank_ceiling():
    # the node permutation is checked against the Cartan matrix, not looked
    # up among all diagram symmetries, whose listing is O(l^4)
    p = pair_of(so(256), items=[HItem("so", 200, (0,))])
    fork = Twist((0,), (tuple(range(126)) + (127, 126),))
    start = time.process_time()
    res = twist(p, fork)
    assert time.process_time() - start < 1.0
    assert (res.rank, res.complexity) == (56, 1540)


def test_additivity_block_concatenation():
    p1 = pair_of(sl(6), items=[HItem("sp", 6, (0,))])
    p2 = pair_of(sp(6), items=[HItem("sl", 2, (0,))] * 3)
    combined = pair_of(sl(6), sp(6), items=[
        HItem("sp", 6, (0,)), HItem("sl", 2, (1,)), HItem("sl", 2, (1,)), HItem("sl", 2, (1,))])
    r1, r2, rc = cartan_space(p1), cartan_space(p2), cartan_space(combined)
    assert rc.rank == r1.rank + r2.rank
    assert rc.complexity == r1.complexity + r2.complexity
    expected = [tuple(b) + (Q(0),) * 3 for b in r1.space.basis]
    expected += [(Q(0),) * 5 + tuple(b) for b in r2.space.basis]
    assert span(expected, 8) == rc.space


def _direct_sum(p, q):
    """p + q on the concatenated factors, the central rows block-diagonal
    over [slots of p, slots of q]."""
    shift = len(p.factors)
    items = p.items + tuple(HItem(it.base, it.size, tuple(t + shift for t in it.targets),
                                  it.diag_type) for it in q.items)
    zp, zq = len(tuple(p.families)), len(tuple(q.families))
    rows = [tuple(r) + (Q(0),) * zq for r in (p.center.basis if p.center else ())]
    rows += [(Q(0),) * zp + tuple(r) for r in (q.center.basis if q.center else ())]
    center = span(rows, zp + zq) if rows else None
    return ReductivePair(p.factors + q.factors, 0, items, center)


def test_direct_sums_add_up():
    import random

    from cartanspaces.cli import survey_pairs

    survey = [(pair, res) for _, pair, res in survey_pairs(4)]
    rng = random.Random(11)
    for _ in range(300):
        (p, rp), (q, rq) = rng.choice(survey), rng.choice(survey)
        pair = _direct_sum(p, q)
        res = cartan_space(pair)
        # what the central branch of the engine relies on: a summand with a
        # central part has a family row on every factor
        for sub in decompose(pair):
            if sub.center is not None:
                assert all(f in sub.families for f in range(len(sub.factors)))
        n, m = p.weight_ambient, q.weight_ambient
        blocks = [tuple(b) + (Q(0),) * m for b in rp.space.basis]
        blocks += [(Q(0),) * n + tuple(b) for b in rq.space.basis]
        assert res.space == span(blocks, n + m)
        assert res.rank == rp.rank + rq.rank
        assert res.complexity == rp.complexity + rq.complexity
        assert res.essential.item_indices == rp.essential.item_indices + tuple(
            i + len(p.items) for i in rq.essential.item_indices)
        assert res.trace == rp.trace + rq.trace


def test_rank_additivity_under_saturation():
    # adding the full central part always cuts the rank by its dimension
    cases = [
        (pair_of(sl(5), items=[HItem("sl", 3, (0,))]),
         pair_of(sl(5), items=[HItem("sl", 3, (0,))], center=FULL_Z)),
        (pair_of(sl(7), items=[HItem("sl", 4, (0,)), HItem("sl", 3, (0,))]),
         pair_of(sl(7), items=[HItem("sl", 4, (0,)), HItem("sl", 3, (0,))], center=FULL_Z)),
        (pair_of(sl(5), items=[HItem("sp", 4, (0,))]),
         pair_of(sl(5), items=[HItem("sp", 4, (0,))], center=FULL_Z)),
        (pair_of(so(10), items=[HItem("sl", 5, (0,))]),
         pair_of(so(10), items=[HItem("sl", 5, (0,))], center=FULL_Z)),
        (pair_of(SimpleType("E", 6), items=[HItem("so", 10, (0,))]),
         pair_of(SimpleType("E", 6), items=[HItem("so", 10, (0,))], center=FULL_Z)),
    ]
    for bare, saturated in cases:
        rb = cartan_space(bare)
        rs_ = cartan_space(saturated)
        assert rb.rank == rs_.rank + 1
        assert rb.space.contains(rs_.space)


def test_saturated_families_spherical_members():
    # the classically spherical saturated members: the two-block pairs, the
    # odd symplectic and orthogonal extensions, the rank-one corner, and
    # the exceptional row
    cases = [
        pair_of(sl(7), items=[HItem("sl", 4, (0,)), HItem("sl", 3, (0,))], center=FULL_Z),
        pair_of(sl(9), items=[HItem("sl", 5, (0,)), HItem("sl", 4, (0,))], center=FULL_Z),
        pair_of(sl(5), items=[HItem("sp", 4, (0,))], center=FULL_Z),
        pair_of(sl(7), items=[HItem("sp", 6, (0,))], center=FULL_Z),
        pair_of(so(10), items=[HItem("sl", 5, (0,))], center=FULL_Z),
        pair_of(so(14), items=[HItem("sl", 7, (0,))], center=FULL_Z),
        pair_of(SimpleType("E", 6), items=[HItem("so", 10, (0,))], center=FULL_Z),
        pair_of(sl(8), items=[HItem("sl", 7, (0,))], center=FULL_Z),
    ]
    for p in cases:
        res = cartan_space(p)
        assert res.complexity == 0, p
    # and the two-block case has the expected symmetric-space rank
    res = cartan_space(cases[0])
    assert res.rank == 3
    # a deep corner with its center is far from spherical
    deep = pair_of(sl(8), items=[HItem("sl", 5, (0,))], center=FULL_Z)
    assert cartan_space(deep).complexity == 6


def test_row1_and_row3_family_agree_on_sl3():
    # sp(2) and sl(2) describe the same block in sl(3); both catalog routes
    # must produce the same saturated space
    via_row1 = cartan_space(pair_of(sl(3), items=[HItem("sl", 2, (0,))], center=FULL_Z))
    via_row3 = cartan_space(pair_of(sl(3), items=[HItem("sp", 2, (0,))], center=FULL_Z))
    assert via_row1.space == via_row3.space
    assert via_row1.rank == 1


def test_two_dimensional_center_across_three_factors():
    # three corner families chained by a two-dimensional central subspace
    center = span([[1, 1, 0], [0, 1, 1]], 3)
    p = pair_of(sl(5), sl(5), sl(5),
                items=[HItem("sl", 3, (0,)), HItem("sl", 3, (1,)), HItem("sl", 3, (2,))],
                center=center)
    assert len(decompose(p)) == 1
    res = cartan_space(p)
    assert res.rank == 3 * 4 - 2
    assert len(res.essential.center_rows) == 2
    # saturating fully instead cuts all three dimensions
    full = span([[1, 0, 0], [0, 1, 0], [0, 0, 1]], 3)
    p_full = pair_of(sl(5), sl(5), sl(5),
                     items=[HItem("sl", 3, (0,)), HItem("sl", 3, (1,)), HItem("sl", 3, (2,))],
                     center=full)
    assert cartan_space(p_full).rank == 3 * 4 - 3


def test_center_only_summand():
    p = ReductivePair((sl(4),), 2, (HItem("sp", 4, (0,)),), span([[1, 0]], 2))
    res = cartan_space(p)
    # weight block contributes rank 1; the 2-dim torus block is cut once
    assert res.rank == 1 + 1
    assert res.essential.center_rows == (vec((1, 0)),)


def test_parallel_batch_evaluation():
    # immutable inputs and a read-only catalog: concurrent evaluation must
    # agree with the sequential results
    import threading
    from concurrent.futures import ThreadPoolExecutor

    pairs = [
        pair_of(sl(6), items=[HItem("sp", 6, (0,))]),
        pair_of(SimpleType("E", 6), items=[HItem("so", 10, (0,))]),
        pair_of(sp(6), items=[HItem("sl", 2, (0,))] * 3),
        pair_of(sl(5), items=[HItem("sl", 3, (0,))], center=FULL_Z),
        pair_of(so(9), items=[HItem("spin", 7, (0,))]),
    ] * 8
    sequential = [cartan_space(p) for p in pairs]
    with ThreadPoolExecutor(max_workers=8) as pool:
        parallel = list(pool.map(cartan_space, pairs))
    for a, b in zip(sequential, parallel):
        assert a.space == b.space and a.complexity == b.complexity
    # a concurrent first load of the catalog builds it once
    from cartanspaces import catalog

    loaded = catalog.get_catalog()
    barrier = threading.Barrier(8)

    def first_load(_):
        barrier.wait()
        return catalog.get_catalog()

    try:
        for _ in range(5):
            catalog._CATALOG = None
            with ThreadPoolExecutor(max_workers=8) as pool:
                catalogs = list(pool.map(first_load, range(8)))
            assert len({id(c) for c in catalogs}) == 1
    finally:
        catalog._CATALOG = loaded


def test_complexity_structural_bounds():
    # the codimension of a generic orbit is trapped between the homogeneous
    # and Borel dimension counts: dim G/H - dim B <= c <= dim G/H - rank
    from cartanspaces.cli import survey_pairs

    for _, pair, res in survey_pairs(6):
        dim_gh = pair.dim_g - pair.dim_h
        dim_b = (pair.dim_g + pair.rank_g + pair.center_dim) // 2
        assert res.complexity + res.rank <= dim_gh
        assert res.complexity >= dim_gh - dim_b
        assert res.complexity >= 0


def test_outside_catalog_diagnostics():
    with pytest.raises(OutsideCatalogError) as err:
        cartan_space(pair_of(sl(5), items=[HItem("sl", 2, (0,))]))
    assert "2*k>=n+2" in str(err.value)
    with pytest.raises(OutsideCatalogError):
        cartan_space(pair_of(so(11), items=[HItem("spin", 7, (0,))]))
    with pytest.raises(OutsideCatalogError):
        cartan_space(pair_of(so(9), items=[HItem("g2", None, (0,))]))
    # three-fold diagonal is not covered
    t = SimpleType("A", 2)
    p = ReductivePair((t, t, t), 0,
                      (HItem("diag", None, (0, 1), t), HItem("diag", None, (1, 2), t)))
    with pytest.raises(OutsideCatalogError):
        cartan_space(p)
    # a summand's refusal names its items as written in the whole pair
    p = pair_of(sl(6), sp(4), items=[HItem("sl", 5, (0,)), HItem("sl", 2, (1,))])
    with pytest.raises(OutsideCatalogError) as err:
        cartan_space(p)
    assert str(err.value) == (
        "summand (C2 / sl(2)@2) is outside the encoded tables: "
        "T1.4:4 requires '2*k>=n+1', violated at {'k': 1, 'n': 2}")
