"""The complexity count against independent references.

`levi_centralizer_dim` counts the fixed roots of a classical factor from
the e-coordinates of the basis weights (Bourbaki, plates I-IV) and builds
no root system; only an exceptional factor loops over its positive roots.
The reference below counts with the root system instead: every positive
root in ambient coordinates against every basis weight, which it solves
from the Cartan matrix, with exact integer dot products.
"""

import itertools
import random
import time
from fractions import Fraction
from math import lcm

from cartanspaces.catalog import ReductivePair
from cartanspaces.cli import survey_pairs
from cartanspaces.engine import (
    Twist,
    cartan_space,
    complexity_of_space,
    levi_centralizer_dim,
    twist,
)
from cartanspaces.pairs import parse_pair
from cartanspaces.ratlinalg import dot, span
from cartanspaces.rootsystems import (
    SERIES_MAX_RANK,
    SERIES_MIN_RANK,
    SimpleType,
    build_root_system,
)
from references import diagram_automorphisms, weight_vector


def reference_levi_dim(pair, space):
    """rank + center + the roots orthogonal to every basis weight; beta and
    -beta fix the same weights, and a weight scaled to integers fixes the
    same roots."""
    count, offset = 0, 0
    for t in pair.factors:
        rs = build_root_system(t)
        weights = []
        for b in space.basis:
            if any(b[offset: offset + t.rank]):
                w = weight_vector(rs, b[offset: offset + t.rank])
                den = lcm(*(x.denominator for x in w))
                weights.append([int(x * den) for x in w])
        count += 2 * sum(1 for beta in rs.positive_roots
                         if all(dot(beta, w) == 0 for w in weights))
        offset += t.rank
    return pair.rank_g + pair.center_dim + count


def test_levi_count_matches_ambient_root_loop():
    pairs = [pair for _, pair, _ in survey_pairs(12)]
    assert len(pairs) == 459
    pairs += [parse_pair(text) for text in ("sl(30)/sl(16)", "sp(24)/sp(14)", "E6/D5")]
    for pair in pairs:
        space = cartan_space(pair).space
        assert levi_centralizer_dim(pair, space) == reference_levi_dim(pair, space), pair


def test_levi_count_matches_root_loop_on_random_subspaces():
    # every simple type up to rank 12, 62 subspaces each; the entries have
    # denominators 1 to 3 and repeat often, so coordinates collide
    rng = random.Random(17)
    entries = [Fraction(p, q) for p in (-2, -1, 0, 0, 0, 0, 1, 1, 2) for q in (1, 1, 2, 3)]
    types = [SimpleType(s, r) for s, lo in SERIES_MIN_RANK.items()
             for r in range(lo, SERIES_MAX_RANK.get(s, 12) + 1)]
    assert len(types) == 49
    checked = 0
    for t in types:
        pair = ReductivePair((t,), 0, (), None)
        for _ in range(62):
            vectors = [[rng.choice(entries) for _ in range(t.rank)]
                       for _ in range(rng.randint(1, 3))]
            space = span(vectors, t.rank)
            assert levi_centralizer_dim(pair, space) == reference_levi_dim(pair, space), \
                (t, vectors)
            checked += 1
    assert checked >= 3000


def test_classical_pairs_build_no_root_system():
    for text in ("so(41)/so(22)", "sp(32)/sp(18)+sp(14)", "sl(16)/sl(9)+z=[pi_v(7)]",
                 "sl(12)+sl(12)/diag(sl(12))"):
        build_root_system.cache_clear()
        cartan_space(parse_pair(text))
        assert build_root_system.cache_info().currsize == 0, text
    # twisting reads the Cartan matrix alone: D128 by the swap of its spin nodes
    build_root_system.cache_clear()
    twist(parse_pair("so(256)/so(200)"), Twist((0,), ((*range(126), 127, 126),)))
    assert build_root_system.cache_info().currsize == 0
    build_root_system.cache_clear()
    cartan_space(parse_pair("E6/D5"))
    assert build_root_system.cache_info().currsize == 1


def test_rank_ceiling_pairs():
    for text, complexity in (("so(257)/so(200)", 1596), ("sp(256)/sp(200)", 1540)):
        t0 = time.perf_counter()
        res = cartan_space(parse_pair(text))
        elapsed = time.perf_counter() - t0
        assert res.complexity == complexity, text
        assert elapsed < 5.0, f"{text} took {elapsed:.1f}s"


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
