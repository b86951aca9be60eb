"""Invariants every answer must satisfy, read off no table.

For reductive H, V(lambda)^H != 0 exactly when V(lambda*)^H != 0, with
lambda* = -w0 lambda.  So every Cartan space is stable under lambda -> -w0
lambda: pi_i -> pi_sigma(i) factor by factor (`dual_weight_permutation`:
sigma reverses A, swaps the fork of D_r at odd r and swaps 1-5 and 2-4 in
E6), with the characters of the central torus negated.

A pair's answer does not depend on how it is spelled: with its items in
another order and its factors permuted, its space is the same up to the
induced permutation of the weight blocks.
"""

from collections import Counter

import pytest

from cartanspaces.cli import survey_pairs
from cartanspaces.engine import cartan_space
from cartanspaces.catalog import ReductivePair
from cartanspaces.pairs import format_pair, parse_pair
from cartanspaces.ratlinalg import RationalSubspace, span
from cartanspaces.rootsystems import dual_weight_permutation

# so(2r)/so(r+1) at odd r, where -w0 is the fork swap, in survey order
_ITEM1 = ["so(10)/so(6)", "so(14)/so(8)", "so(18)/so(10)", "so(22)/so(12)"]


def _dual(pair, space: RationalSubspace) -> RationalSubspace:
    """The image of `space` under lambda -> -w0 lambda."""
    n = pair.weight_ambient
    cols = [pair.columns(f)[d] for f, t in enumerate(pair.factors)
            for d in dual_weight_permutation(t)]
    images = []
    for b in space.basis:
        v = [-x for x in b]  # the central characters negated, the rest moved below
        for c, x in zip(cols, b):
            v[c] = x
        images.append(v)
    return span(images, n)


def _not_self_dual(rows) -> list[str]:
    return [format_pair(pair) for _, pair, result in rows
            if _dual(pair, result.space) != result.space]


def _survey_cases():
    return [pytest.param(pair, result, id=format_pair(pair), marks=pytest.mark.xfail(
                strict=True, reason="ROADMAP item 1: T1.4:8 at so(2r)/so(r+1)"))
            if format_pair(pair) in _ITEM1 else pytest.param(pair, result, id=format_pair(pair))
            for _, pair, result in survey_pairs(12)]


@pytest.mark.parametrize("pair, result", _survey_cases())
def test_space_is_stable_under_minus_w0(pair, result):
    assert _dual(pair, result.space) == result.space


@pytest.mark.parametrize("text", [
    "sl(5)+center(1)/sl(3)+z=[z0(1)+pi_v(2)]",
    "sl(12)+sl(7)+center(1)/sl(7) in 1+sp(6) in 2+z=[pi_v(5)@1+z0(1);pi_v(1)@2+-2*z0(1)]",
    "E6+center(2)/so(10)+z=[z0(1)+z0(2)+3/4*pi_v(1)]",
])
def test_central_torus_characters_are_negated(text):
    # no survey pair has a central torus in g
    pair = parse_pair(text)
    space = cartan_space(pair).space
    assert pair.center_dim and _dual(pair, space) == space


def test_minus_w0_catches_a_shifted_generator_list(planted_tables):
    # T1.4:3 with every generator index shifted by one: the survey still
    # answers, and each sl(2n)/sp(2n) space loses its -w0 symmetry
    planted_tables('gens="pi(2*i) : i=1..n-1"', 'gens="pi(2*i-1) : i=1..n-1"')
    rows = survey_pairs(12)
    assert len(rows) == 459
    assert _not_self_dual(rows) == [f"sl({2 * n})/sp({2 * n})" for n in range(2, 7)] + _ITEM1


_SPELLED = survey_pairs(6)


@pytest.mark.parametrize("pair, result", [pytest.param(pair, result, id=format_pair(pair))
                                          for _, pair, result in _SPELLED])
def test_answer_does_not_depend_on_the_spelling(pair, result):
    # items reversed and factors reversed: new factor j is old factor order[j]
    order = range(len(pair.factors))[::-1]
    new = {f: j for j, f in enumerate(order)}
    assert pair.center is None or len(order) == 1  # else the central slots move too
    items = tuple(it.retarget(tuple(new[t] for t in it.targets)) for it in reversed(pair.items))
    respelled = ReductivePair(tuple(pair.factors[f] for f in order), pair.center_dim, items,
                              pair.center)
    cols = {c: respelled.columns(new[f])[i] for f in range(len(order))
            for i, c in enumerate(pair.columns(f))}
    moved = [[0] * pair.weight_ambient for _ in result.space.basis]
    for v, b in zip(moved, result.space.basis):
        for c, x in enumerate(b):
            v[cols.get(c, c)] = x
    got = cartan_space(respelled)
    assert got.space == span(moved, pair.weight_ambient)
    assert (got.rank, got.complexity) == (result.rank, result.complexity)
    assert sorted(got.trace) == sorted(result.trace)
    assert Counter(got.essential.items) == Counter(
        it.retarget(tuple(new[t] for t in it.targets)) for it in result.essential.items)


def test_spelling_covers_two_factor_and_multi_item_pairs():
    assert len(_SPELLED) == 124
    assert sum(len(pair.factors) == 2 for _, pair, _ in _SPELLED) == 15
    assert sum(len(pair.items) > 1 for _, pair, _ in _SPELLED) == 29
