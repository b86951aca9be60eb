import re
from fractions import Fraction as Q
from itertools import combinations, product

import pytest

from cartanspaces import rootsystems
from cartanspaces.catalog import HItem
from cartanspaces.errors import ConstraintError, PairSyntaxError
from cartanspaces.pairs import parse_pair
from cartanspaces.ratlinalg import dot
from cartanspaces.rootsystems import (
    RANK_CEILING,
    SERIES_MIN_RANK,
    SimpleType,
    algebra,
    build_root_system,
    dual_weight_permutation,
    highest_root,
    k_value,
    sl,
    so,
    sp,
    vo_to_bourbaki,
    weyl_dim,
)
from references import diagram_automorphisms, pairing, roots

ALL_SAMPLE_TYPES = [
    SimpleType("A", 1), SimpleType("A", 2), SimpleType("A", 5),
    SimpleType("B", 2), SimpleType("B", 4), SimpleType("C", 3),
    SimpleType("D", 4), SimpleType("D", 5),
    SimpleType("E", 6), SimpleType("E", 7), SimpleType("E", 8),
    SimpleType("F", 4), SimpleType("G", 2),
]


def test_simple_type_constraints():
    with pytest.raises(ConstraintError):
        SimpleType("B", 1)
    with pytest.raises(ConstraintError):
        SimpleType("E", 9)
    with pytest.raises(ConstraintError):
        SimpleType("H", 3)
    assert sl(4) == SimpleType("A", 3)
    assert so(9) == SimpleType("B", 4)
    assert so(10) == SimpleType("D", 5)
    assert sp(8) == SimpleType("C", 4)
    assert sp(2) == SimpleType("A", 1)
    # the classical series stop at one documented ceiling, which admits 120
    assert RANK_CEILING >= 120
    for series in "ABCD":
        assert SimpleType(series, RANK_CEILING).rank == RANK_CEILING
        with pytest.raises(ConstraintError):
            SimpleType(series, RANK_CEILING + 1)
    with pytest.raises(ConstraintError):
        sl(RANK_CEILING + 2)
    with pytest.raises(ConstraintError):
        SimpleType("A", 10**9)


# dimensions in closed form (Bourbaki, plates I-IX)
CLOSED_DIM = {"A": lambda l: l * (l + 2), "B": lambda l: l * (2 * l + 1),
              "C": lambda l: l * (2 * l + 1), "D": lambda l: l * (2 * l - 1)}
EXCEPTIONAL_DIM = {"G2": 14, "F4": 52, "E6": 78, "E7": 133, "E8": 248}


def _naming_mismatches() -> list:
    """Where the naming table disagrees with the standard names: every
    classical type up to rank 12 and at the ceiling, the exceptional types,
    and series-letter items against their size names."""
    types = [SimpleType(s, r) for s in "ABCD"
             for r in [*range(SERIES_MIN_RANK[s], 13), RANK_CEILING]]
    types += [SimpleType(name[0], int(name[1])) for name in EXCEPTIONAL_DIM]
    out = []
    for t in types:
        m = re.fullmatch(r"(\w+)\((\d+)\)|(\w+)", t.name)
        named = algebra(m[1], int(m[2])) if m[1] else algebra(m[3])
        want = EXCEPTIONAL_DIM.get(str(t)) or CLOSED_DIM[t.series](t.rank)
        if named != t or t.dim != want:
            out.append((t, t.name, named, t.dim, want))
    for factor, letter, base, size in [("sl(6)", "A3", "sl", 4), ("so(12)", "B4", "so", 9),
                                       ("sp(8)", "C3", "sp", 6), ("so(12)", "D5", "so", 10)]:
        items = parse_pair(f"{factor}/{letter}").items
        if not items == parse_pair(f"{factor}/{base}({size})").items == (HItem(base, size, (0,)),):
            out.append((letter, items))
    return out


def test_one_naming_table():
    assert _naming_mismatches() == []


def test_naming_check_catches_a_wrong_series_entry(monkeypatch):
    monkeypatch.setitem(rootsystems.CLASSICAL, "D", ("so", 2, 1))
    assert _naming_mismatches() != []


def test_series_parameter_is_not_a_matrix_name():
    # X(r) takes a series letter; a matrix name there is an unknown series
    with pytest.raises(PairSyntaxError, match="unknown series 'sl'"):
        parse_pair("sl(3)+sl(3)/T1.4:25(r=3,s=sl)")
    assert parse_pair("sl(3)+sl(3)/T1.4:25(r=2,s=A)").factors == (sl(3), sl(3))


def test_a2_basics():
    rs = build_root_system(SimpleType("A", 2))
    assert len(roots(rs)) == 6
    assert rs.cartan_matrix == ((2, -1), (-1, 2))


def test_g2_length_ratio():
    rs = build_root_system(SimpleType("G", 2))
    assert len(roots(rs)) == 12
    norms = sorted({dot(r, r) for r in roots(rs)})
    assert norms[1] / norms[0] == 3


def test_d4_count_against_enumeration():
    # oracle: the 24 vectors +-e_i +- e_j, i < j <= 4
    oracle = set()
    for i, j in combinations(range(4), 2):
        for si, sj in product((1, -1), repeat=2):
            v = [Q(0)] * 4
            v[i], v[j] = Q(si), Q(sj)
            oracle.add(tuple(v))
    rs = build_root_system(SimpleType("D", 4))
    assert set(roots(rs)) == oracle
    assert len(roots(rs)) == 24


def test_root_counts_match_classical_formulas():
    def count(t):
        l = t.rank
        return {"A": l * (l + 1), "B": 2 * l * l, "C": 2 * l * l, "D": 2 * l * (l - 1),
                "F": 48, "G": 12}.get(t.series) or {6: 72, 7: 126, 8: 240}[l]
    for t in ALL_SAMPLE_TYPES:
        assert len(roots(build_root_system(t))) == count(t)


def test_simple_root_coordinates_and_norms():
    for t in ALL_SAMPLE_TYPES:
        rs = build_root_system(t)
        assert rs.simple_norms == tuple(dot(a, a) for a in rs.simple_roots)
        assert len(rs.positive_coords) == len(rs.positive_roots) == (t.dim - t.rank) // 2
        for beta, coords in zip(rs.positive_roots, rs.positive_coords):
            assert min(coords) >= 0
            assert beta == tuple(sum(c * a[k] for c, a in zip(coords, rs.simple_roots))
                                 for k in range(rs.ambient_dim))
        negatives = {tuple(-x for x in r) for r in rs.positive_roots}
        assert set(roots(rs)) == set(rs.positive_roots) | negatives


def test_weight_coroot_duality_everywhere():
    for t in ALL_SAMPLE_TYPES:
        rs = build_root_system(t)
        for i, w in enumerate(rs.fundamental_weights):
            for j, a in enumerate(rs.simple_roots):
                assert pairing(w, a) == (1 if i == j else 0)


def test_k_values_small():
    assert k_value(build_root_system(SimpleType("A", 2))) == 12
    assert k_value(build_root_system(SimpleType("G", 2))) == 16
    assert k_value(build_root_system(SimpleType("B", 3))) == 20


def test_k_value_b3_brute_force_oracle():
    # independent enumeration: roots of so(7) as explicit vectors
    b3_roots = []
    for i in range(3):
        for s in (1, -1):
            v = [Q(0)] * 3
            v[i] = Q(s)
            b3_roots.append(tuple(v))
    for i, j in combinations(range(3), 2):
        for si, sj in product((1, -1), repeat=2):
            v = [Q(0)] * 3
            v[i], v[j] = Q(si), Q(sj)
            b3_roots.append(tuple(v))
    assert len(b3_roots) == 18
    alpha = (Q(1), Q(1), Q(0))  # a long root
    total = sum((2 * dot(b, alpha) / dot(alpha, alpha)) ** 2 for b in b3_roots)
    assert total == 20
    assert k_value(build_root_system(SimpleType("B", 3))) == total


def test_k_value_independent_of_long_root_choice():
    for t in [SimpleType("B", 3), SimpleType("C", 4), SimpleType("G", 2), SimpleType("F", 4)]:
        rs = build_root_system(t)
        long_sq = max(dot(r, r) for r in roots(rs))
        values = {k_value(rs, long_root=r) for r in roots(rs) if dot(r, r) == long_sq}
        assert values == {k_value(rs)} == {rs.k}
    with pytest.raises(ConstraintError):
        rs = build_root_system(SimpleType("B", 3))
        short = next(r for r in roots(rs) if dot(r, r) == 1)
        k_value(rs, long_root=short)


@pytest.mark.parametrize("t", [SimpleType(s, l) for s in "ABCD" for l in range(SERIES_MIN_RANK[s], 41)]
                         + [SimpleType("D", 128), SimpleType("C", 128)], ids=str)
def test_plate_roots_equal_the_reflection_closure(t):
    # a classical type reads its positive roots and their simple-root
    # coordinates off Bourbaki's plates; the closure from the simple roots
    # must give the same system, every field in the same order
    plates = rootsystems._realize(t, plates=True)
    assert plates == rootsystems._realize(t, plates=False)
    assert build_root_system.__wrapped__(t) == plates


def test_weyl_dim_basic():
    assert weyl_dim(build_root_system(SimpleType("A", 1)), [1]) == 2
    for t in ALL_SAMPLE_TYPES:
        rs = build_root_system(t)
        assert weyl_dim(rs, [0] * t.rank) == 1
        # adjoint dimension from the highest root
        theta = highest_root(rs)
        coeffs = [int(pairing(theta, a)) for a in rs.simple_roots]
        assert weyl_dim(rs, coeffs) == t.dim


def test_weyl_dim_c3_pi2_oracle():
    # independent product formula over the explicitly listed positive roots
    pos = []
    for i, j in combinations(range(3), 2):
        for sj in (1, -1):
            v = [Q(0)] * 3
            v[i], v[j] = Q(1), Q(sj)
            pos.append(tuple(v))
    pos += [tuple(Q(2) if k == i else Q(0) for k in range(3)) for i in range(3)]
    assert len(pos) == 9
    lam = (Q(1), Q(1), Q(0))   # second fundamental weight of sp(6)
    rho = (Q(3), Q(2), Q(1))
    num = Q(1)
    for b in pos:
        num *= dot(tuple(l + r for l, r in zip(lam, rho)), b) / dot(rho, b)
    assert num == 14
    assert weyl_dim(build_root_system(SimpleType("C", 3)), [0, 1, 0]) == 14


def test_weyl_dim_b4_spinor_oracle():
    pos = []
    for i in range(4):
        v = [Q(0)] * 4
        v[i] = Q(1)
        pos.append(tuple(v))
    for i, j in combinations(range(4), 2):
        for sj in (1, -1):
            v = [Q(0)] * 4
            v[i], v[j] = Q(1), Q(sj)
            pos.append(tuple(v))
    assert len(pos) == 16
    lam = (Q(1, 2),) * 4
    rho = (Q(7, 2), Q(5, 2), Q(3, 2), Q(1, 2))
    num = Q(1)
    for b in pos:
        num *= dot(tuple(l + r for l, r in zip(lam, rho)), b) / dot(rho, b)
    assert num == 16
    assert weyl_dim(build_root_system(SimpleType("B", 4)), [0, 0, 0, 1]) == 16


def test_weyl_dim_rejects_non_dominant():
    rs = build_root_system(SimpleType("A", 2))
    with pytest.raises(ConstraintError):
        weyl_dim(rs, [-1, 0])
    with pytest.raises(ConstraintError):
        weyl_dim(rs, [Q(1, 2), 0])


def test_weyl_dim_invariant_under_diagram_automorphisms():
    for t in [SimpleType("A", 3), SimpleType("D", 4), SimpleType("E", 6)]:
        rs = build_root_system(t)
        lam = list(range(1, t.rank + 1))
        base = weyl_dim(rs, lam)
        for p in diagram_automorphisms(rs):
            moved = [0] * t.rank
            for i, c in enumerate(lam):
                moved[p[i]] = c
            assert weyl_dim(rs, moved) == base


def _graph_automorphism_oracle(rs):
    # brute force on the adjacency structure of the Cartan matrix
    from itertools import permutations

    l = rs.rank
    C = rs.cartan_matrix
    out = []
    for p in permutations(range(l)):
        if all(C[p[i]][p[j]] == C[i][j] for i in range(l) for j in range(l)):
            out.append(p)
    return sorted(out)


def test_diagram_automorphism_groups():
    assert diagram_automorphisms(build_root_system(SimpleType("A", 1))) == [(0,)]
    assert diagram_automorphisms(build_root_system(SimpleType("A", 3))) == [(0, 1, 2), (2, 1, 0)]
    d4 = diagram_automorphisms(build_root_system(SimpleType("D", 4)))
    assert len(d4) == 6
    assert d4 == _graph_automorphism_oracle(build_root_system(SimpleType("D", 4)))
    assert len(diagram_automorphisms(build_root_system(SimpleType("E", 6)))) == 2
    assert len(diagram_automorphisms(build_root_system(SimpleType("E", 7)))) == 1
    assert len(diagram_automorphisms(build_root_system(SimpleType("G", 2)))) == 1


ADJOINT_LABELS_VO = {
    # highest-root coefficients in the fundamental-weight basis, VO numbering
    SimpleType("A", 3): (1, 0, 1),
    SimpleType("B", 4): (0, 1, 0, 0),
    SimpleType("C", 4): (2, 0, 0, 0),
    SimpleType("D", 5): (0, 1, 0, 0, 0),
    SimpleType("G", 2): (0, 1),
    SimpleType("F", 4): (0, 0, 0, 1),
    SimpleType("E", 6): (0, 0, 0, 0, 0, 1),
    SimpleType("E", 7): (0, 0, 0, 0, 0, 1, 0),
    SimpleType("E", 8): (1, 0, 0, 0, 0, 0, 0, 0),
}

ADJOINT_LABELS_BOURBAKI = {
    # the standard labels: A: pi_1+pi_l, B/D: pi_2, C: 2 pi_1,
    # G2: pi_2, F4: pi_1, E6: pi_2, E7: pi_1, E8: pi_8
    SimpleType("A", 3): {1: 1, 3: 1},
    SimpleType("B", 4): {2: 1},
    SimpleType("C", 4): {1: 2},
    SimpleType("D", 5): {2: 1},
    SimpleType("G", 2): {2: 1},
    SimpleType("F", 4): {1: 1},
    SimpleType("E", 6): {2: 1},
    SimpleType("E", 7): {1: 1},
    SimpleType("E", 8): {8: 1},
}


def test_numbering_pins_via_adjoint_weight():
    for t, coeffs in ADJOINT_LABELS_VO.items():
        rs = build_root_system(t)
        theta = highest_root(rs)
        got = tuple(int(pairing(theta, a)) for a in rs.simple_roots)
        assert got == coeffs, t
        # converting VO labels to standard labels hits the known adjoint labels
        perm = vo_to_bourbaki(t)
        converted = {perm[i]: c for i, c in enumerate(got) if c}
        assert converted == ADJOINT_LABELS_BOURBAKI[t], t


def test_numbering_pins_minuscule_dimensions():
    # the table convention puts the 27s of E6 at pi_1/pi_5, the 56 of E7 at
    # pi_1, the 26 of F4 at pi_1
    e6 = build_root_system(SimpleType("E", 6))
    assert weyl_dim(e6, [1, 0, 0, 0, 0, 0]) == 27
    assert weyl_dim(e6, [0, 0, 0, 0, 1, 0]) == 27
    e7 = build_root_system(SimpleType("E", 7))
    assert weyl_dim(e7, [1, 0, 0, 0, 0, 0, 0]) == 56
    f4 = build_root_system(SimpleType("F", 4))
    assert weyl_dim(f4, [1, 0, 0, 0]) == 26
    d5 = build_root_system(SimpleType("D", 5))
    assert weyl_dim(d5, [0, 0, 0, 1, 0]) == 16
    assert weyl_dim(d5, [0, 0, 0, 0, 1]) == 16


def test_dual_weight_permutations():
    assert dual_weight_permutation(SimpleType("A", 4)) == (3, 2, 1, 0)
    assert dual_weight_permutation(SimpleType("D", 5)) == (0, 1, 2, 4, 3)
    assert dual_weight_permutation(SimpleType("D", 6)) == (0, 1, 2, 3, 4, 5)
    assert dual_weight_permutation(SimpleType("E", 6)) == (4, 3, 2, 1, 0, 5)
    assert dual_weight_permutation(SimpleType("B", 4)) == (0, 1, 2, 3)
    # duality preserves module dimensions
    for t in [SimpleType("A", 4), SimpleType("D", 5), SimpleType("E", 6)]:
        rs = build_root_system(t)
        p = dual_weight_permutation(t)
        lam = list(range(1, t.rank + 1))
        moved = [0] * t.rank
        for i, c in enumerate(lam):
            moved[p[i]] = c
        assert weyl_dim(rs, moved) == weyl_dim(rs, lam)
