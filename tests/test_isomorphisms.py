"""Pairs spelled through isomorphic algebras: B2 = C2, A3 = D3 and the
triality of D4 (ROADMAP item 16).  The tables list each pair once, up to
isomorphism, so no decision on coverage is taken here; the tests pin what
the tables do now.

The node maps send node j of one spelling to node NODES[j] of the other,
and a space moves coordinatewise, as `engine.twist` moves it:
- B2 -> C2 swaps nodes 1 and 2: so(4) in so(5) is sp(2)+sp(2) in sp(4);
- D3 -> A3 sends node 1 to 2 and nodes 2, 3 to 1, 3: so(5), so(4) and
  sl(3) in so(6) are sp(4), sl(2)+sl(2) and sl(3) in sl(4);
- triality of D4 fixes nodes 2 and 3 and swaps nodes 1 and 4: so(6) in
  so(8) goes to sl(4), and so(7) to spin(7).

Counts: 1 pair answered both ways (triality), 6 one-sided refusals with
their answered images, 4 pairs that a copy of the tables with T1.4:8 and
T1.4:10 relaxed answers (3 agree with their images; `so(6)/so(4)` is item
1's wrong answer, a strict xfail) and 1 planted fault in T1.4:9.
"""

import re

import pytest

from cartanspaces.engine import _moved, cartan_space
from cartanspaces.errors import OutsideCatalogError
from cartanspaces.pairs import parse_pair
from cartanspaces.ratlinalg import span
from cartanspaces.rootsystems import build_root_system, so
from references import diagram_automorphisms

B2_C2 = (1, 0)
D3_A3 = (1, 0, 2)


def triality() -> tuple[int, ...]:
    """The D4 symmetry that swaps nodes 1 and 4 and fixes the others."""
    autos = diagram_automorphisms(build_root_system(so(8)))
    assert len(autos) == 6
    return next(p for p in autos if p[0] == 3 and p[2] == 2)


def fundamental(n: int, *nodes: int):
    """The span of pi_i for the 1-based nodes given, in Q^n."""
    return span([[int(j == i - 1) for j in range(n)] for i in nodes], n)


def assert_corresponds(text: str, image: str, nodes: tuple[int, ...]):
    """`text` and `image` have the same rank and complexity, and the space
    of `text` moved by the node map is the space of `image`."""
    res, want = cartan_space(parse_pair(text)), cartan_space(parse_pair(image))
    n = res.space.ambient_dim
    assert span(_moved(res.space.basis, nodes, n), n) == want.space, (text, image)
    assert (res.rank, res.complexity) == (want.rank, want.complexity), (text, image)


def check_triality():
    so6, sl4 = cartan_space(parse_pair("so(8)/so(6)")), cartan_space(parse_pair("so(8)/sl(4)"))
    assert (so6.space, so6.complexity) == (fundamental(4, 1, 2), 1)
    assert (sl4.space, sl4.complexity) == (fundamental(4, 2, 4), 1)
    assert_corresponds("so(8)/so(6)", "so(8)/sl(4)", triality())


def test_triality_maps_so6_onto_sl4_in_so8():
    check_triality()


def test_a_planted_fault_in_t14_9_fails_the_triality_check(planted_tables):
    # the edited row still answers rank 2 and complexity 1 at so(8), so only
    # the node map can see that pi_3 has replaced pi_4
    planted_tables('gens="pi(2*i) : i=1..n"', 'gens="pi(2*i) : i=1..n-1 | pi(2*n-1)"')
    assert cartan_space(parse_pair("so(8)/sl(4)")).space == fundamental(4, 2, 3)
    with pytest.raises(AssertionError):
        check_triality()


@pytest.mark.parametrize("text, reason, image, row", [
    ("so(5)/so(4)", "T1.4:8 requires 'n>=7'", "sp(4)/sp(2)+sp(2)", "T1.4:5"),
    ("so(6)/so(5)", "T1.4:8 requires 'n>=7'", "sl(4)/sp(4)", "T1.4:3"),
    ("so(6)/so(4)", "T1.4:8 requires 'n>=7'", "sl(4)/sl(2)+sl(2)", "T1.4:2"),
    ("so(6)/sl(3)", "T1.4:10 requires 'n>=2'", "sl(4)/sl(3)", "T1.4:1"),
    ("so(8)/spin(7)", "no classification row matches", "so(8)/so(7)", "T1.4:8"),
    ("so(8)/sp(4)", "no classification row matches", "so(8)/so(5)", "T1.4:8"),
])
def test_one_sided_refusals_are_pinned(text, reason, image, row):
    # a coverage change turns one of these into an answer, and shows up here
    with pytest.raises(OutsideCatalogError, match=re.escape(reason)):
        cartan_space(parse_pair(text))
    assert cartan_space(parse_pair(image)).trace[0].partition("(")[0] == row


@pytest.mark.parametrize("text, row, image, nodes", [
    ("so(5)/so(4)", "T1.4:8", "sp(4)/sp(2)+sp(2)", B2_C2),
    ("so(6)/so(5)", "T1.4:8", "sl(4)/sp(4)", D3_A3),
    ("so(6)/sl(3)", "T1.4:10", "sl(4)/sl(3)", D3_A3),
    pytest.param("so(6)/so(4)", "T1.4:8", "sl(4)/sl(2)+sl(2)", D3_A3, marks=pytest.mark.xfail(
        strict=True, reason="ROADMAP item 1: T1.4:8 at so(2r)/so(r+1)")),
])
def test_rows_relaxed_to_low_rank_agree_with_the_isomorphic_rows(planted_tables, text, row,
                                                                  image, nodes):
    planted_tables('constraint="n>=7; 2*k>=n+2; k<=n"', 'constraint="n>=5; 2*k>=n+2; k<=n"')
    planted_tables('h=sl(2*n+1)                    constraint="n>=2"',
                   'h=sl(2*n+1)                    constraint="n>=1"')
    assert cartan_space(parse_pair(text)).trace[0].partition("(")[0] == row
    assert_corresponds(text, image, nodes)
