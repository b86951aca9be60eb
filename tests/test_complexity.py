"""The complexity count against independent references.

`levi_centralizer_dim` counts roots on integer simple-root coordinates.
The reference below is the direct count it replaced: every root in ambient
coordinates against every basis weight, with exact Fraction dot products.
"""

import itertools
import time

from cartanspaces.cli import survey_pairs
from cartanspaces.engine import (
    Twist,
    cartan_space,
    complexity_of_space,
    levi_centralizer_dim,
    twist,
)
from cartanspaces.pairs import parse_pair
from cartanspaces.ratlinalg import dot
from cartanspaces.rootsystems import build_root_system, diagram_automorphisms


def reference_levi_dim(pair, space):
    """rank + center + the roots orthogonal to every basis weight."""
    count, offset = 0, 0
    for t in pair.factors:
        rs = build_root_system(t)
        weights = [rs.weight_vector(b[offset: offset + t.rank]) for b in space.basis
                   if any(b[offset: offset + t.rank])]
        count += sum(1 for beta in rs.roots if all(dot(beta, w) == 0 for w in weights))
        offset += t.rank
    return pair.rank_g + pair.center_dim + count


def test_levi_count_matches_ambient_root_loop():
    pairs = [pair for _, pair, _ in survey_pairs(8)]
    assert len(pairs) == 216
    pairs += [parse_pair(text) for text in ("sl(30)/sl(16)", "sp(24)/sp(14)", "E6/D5")]
    for pair in pairs:
        space = cartan_space(pair).space
        assert levi_centralizer_dim(pair, space) == reference_levi_dim(pair, space), pair


def test_twist_invariance_of_rank_and_complexity():
    rows = survey_pairs(6)
    checked = 0
    for _, pair, base in rows:
        autos = [diagram_automorphisms(build_root_system(t)) for t in pair.factors]
        for node_perms in itertools.product(*autos):
            tw = Twist(tuple(range(len(pair.factors))), node_perms)
            moved = twist(pair, tw).space
            assert moved.dim == base.rank, (pair, tw)
            assert complexity_of_space(pair, moved) == base.complexity, (pair, tw)
            checked += 1
    # more than one twist per pair on average: the non-identity ones are exercised
    assert checked > len(rows)


def test_large_rank_regression():
    # closed form of T1.4:1: rank 2(n - k) = 40; the centralizer is the torus
    # and the A19 on nodes 21..39, so c = (3599 + 59 + 380)/2 - 1599 - 40
    t0 = time.perf_counter()
    res = cartan_space(parse_pair("sl(60)/sl(40)"))
    elapsed = time.perf_counter() - t0
    assert (res.rank, res.complexity) == (40, 380)
    assert elapsed < 10.0, f"took {elapsed:.1f}s"


def test_large_rank_central_pair():
    # the central family at the rank ceiling: the T1.6 saturated span and
    # the central cut eliminate about 60 rows of width 128-129
    t0 = time.perf_counter()
    res = cartan_space(parse_pair("sl(129)/sl(100)+z=[pi_v(29)]"))
    elapsed = time.perf_counter() - t0
    assert (res.rank, res.complexity) == (57, 812)
    assert res.trace == ("T1.6:1(k=100,n=129) with central part",)
    assert elapsed < 10.0, f"took {elapsed:.1f}s"
