"""Acceptance criteria, one test per criterion.

Each test prints a single [criterion N] PASS line when its assertions
hold; a failure shows up both as a pytest failure and a missing line.
"""

import random
import time
from fractions import Fraction as Q

import pytest

from cartanspaces.catalog import (
    HItem,
    ReductivePair,
    get_catalog,
    instantiate,
    lookup,
    sample_params,
    verify_entry,
)
from cartanspaces.cli import cmd_verify, survey_pairs
from cartanspaces.engine import (
    Twist,
    alpha_functional,
    cartan_space,
    twist,
)
from cartanspaces.errors import OutsideCatalogError
from cartanspaces.indexes import dynkin_index_of, module_index_complement_types
from cartanspaces.ratlinalg import dot, span
from cartanspaces.rootsystems import (
    SimpleType,
    build_root_system,
    k_value,
    sl,
    so,
    sp,
)
from reference_params import box_admissible_params
from references import diagram_automorphisms, essential_pair


def _report(n: int, text: str):
    print(f"[criterion {n}] PASS {text}")


def test_criterion_1_k_reproduction():
    closed = {"A": lambda l: 4 * l + 4, "B": lambda l: 8 * l - 4,
              "C": lambda l: 4 * l + 4, "D": lambda l: 8 * l - 8}
    cases = []
    for s, lo in [("A", 1), ("B", 2), ("C", 2), ("D", 3)]:
        cases += [(SimpleType(s, l), closed[s](l)) for l in range(lo, 13)]
    cases += [(SimpleType("E", 6), 48), (SimpleType("E", 7), 72), (SimpleType("E", 8), 120),
              (SimpleType("F", 4), 36), (SimpleType("G", 2), 16)]
    t0 = time.perf_counter()
    for t, want in cases:
        assert k_value(build_root_system(t)) == want, t
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"took {elapsed:.3f}s"
    _report(1, f"{len(cases)} long-root pairing sums match the closed forms "
               f"({elapsed * 1000:.0f} ms)")


def test_criterion_2_index_partition():
    catalog = get_catalog()
    t0 = time.perf_counter()
    checked = 0
    for entry in catalog.rows("T3.6"):
        for params in sample_params(entry):
            inst = instantiate(entry, params)
            idx = dynkin_index_of(inst.items[0], list(inst.g_types))
            l = module_index_complement_types(inst.g_types[0], inst.items[0], idx)
            assert l < 1, (entry.row_id, params, l)
            checked += 1
    for entry in catalog.rows("T3.7"):
        for params in sample_params(entry):
            inst = instantiate(entry, params)
            idx = dynkin_index_of(inst.items[0], list(inst.g_types))
            l = module_index_complement_types(inst.g_types[0], inst.items[0], idx)
            assert l == 1, (entry.row_id, params, l)
            checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"took {elapsed:.3f}s"
    _report(2, f"complement index below 1 / exactly 1 on {checked} row instances "
               f"({elapsed * 1000:.0f} ms)")


def test_criterion_3_semisimple_table_ranks():
    catalog = get_catalog()
    checked = 0
    for entry in catalog.rows("T1.4"):
        for params in sample_params(entry):
            inst = instantiate(entry, params)
            distinct = sorted(set(inst.gens))
            spanned = span(distinct, inst.ambient)
            assert spanned.dim == len(distinct), (entry.row_id, params)
            checked += 1
    spots = [
        (ReductivePair((sl(6),), 0, (HItem("sp", 6, (0,)),)), 2),
        (ReductivePair((SimpleType("E", 6),), 0, (HItem("so", 10, (0,)),)), 3),
        (ReductivePair((SimpleType("E", 7),), 0, (HItem("e6", None, (0,)),)), 3),
    ]
    for pair, want in spots:
        assert cartan_space(pair).rank == want
    _report(3, f"generators independent on {checked} instances; "
               "spot ranks 2/3/3 confirmed")


SPHERICAL_SUITE = [
    ReductivePair((sl(4),), 0, (HItem("sp", 4, (0,)),)),
    ReductivePair((sl(6),), 0, (HItem("sp", 6, (0,)),)),
    ReductivePair((so(7),), 0, (HItem("so", 6, (0,)),)),
    ReductivePair((so(9),), 0, (HItem("spin", 7, (0,)),)),
    ReductivePair((SimpleType("F", 4),), 0, (HItem("so", 9, (0,)),)),
    ReductivePair((SimpleType("E", 6),), 0, (HItem("f4", None, (0,)),)),
]


def test_criterion_4_sphericality():
    for pair in SPHERICAL_SUITE:
        res = cartan_space(pair)
        assert res.complexity == 0, (pair, res.complexity)
    _report(4, "complexity 0 on all six reference pairs")


def test_criterion_5_complexity_one_pins():
    pins = [
        ReductivePair((sp(6),), 0, (HItem("sl", 2, (0,)),) * 3),
        ReductivePair((sp(8),), 0,
                      (HItem("sp", 4, (0,)), HItem("sl", 2, (0,)), HItem("sl", 2, (0,)))),
        ReductivePair((SimpleType("F", 4),), 0, (HItem("so", 8, (0,)),)),
    ]
    for pair in pins:
        assert cartan_space(pair).complexity == 1, pair
    _report(5, "complexity 1 on the three reference pairs")


def test_criterion_6_duality_values():
    expected = {
        "1": [({"n": 5, "k": 3}, Q(3, 5)), ({"n": 7, "k": 4}, Q(4, 7))],
        "2": [({"n": 5, "k": 3}, Q(6, 5)), ({"n": 7, "k": 4}, Q(12, 7))],
        "3": [({"n": 2}, Q(4, 5)), ({"n": 4}, Q(8, 9))],
        "4": [({"n": 2}, Q(5, 2)), ({"n": 4}, Q(9, 2))],
        "5": [({}, Q(4, 3))],
    }
    checked = 0
    for row, cases in expected.items():
        entry = lookup("T1.6", row)
        for params, want in cases:
            inst = instantiate(entry, params)
            fn = alpha_functional(entry, params)
            assert dot(fn, inst.aux["lam"]) == want, (row, params)
            for b in inst.aux["sat"].basis:
                assert dot(fn, b) == 0, (row, params)
            checked += 1
    _report(6, f"all five duality constants reproduced on {checked} instances, "
               "each functional annihilating its saturated space")


def test_criterion_7_center_cut_construction():
    full_z = span([[1]], 1)
    cases = [
        (ReductivePair((sl(5),), 0, (HItem("sl", 3, (0,)),), None),
         ReductivePair((sl(5),), 0, (HItem("sl", 3, (0,)),), full_z)),
        (ReductivePair((SimpleType("E", 6),), 0, (HItem("so", 10, (0,)),), None),
         ReductivePair((SimpleType("E", 6),), 0, (HItem("so", 10, (0,)),), full_z)),
    ]
    for bare, saturated in cases:
        rb = cartan_space(bare)
        rs_ = cartan_space(saturated)
        # dimension drops exactly by the central dimension
        assert rs_.rank == rb.rank - 1
        assert rb.space.contains(rs_.space)
    # endpoints on the corner family: bare gives the commutant space (here
    # the full block), full center gives the saturated hyperplane
    e = lookup("T1.6", 1)
    inst = instantiate(e, {"n": 5, "k": 3})
    rb = cartan_space(cases[0][0])
    rs_ = cartan_space(cases[0][1])
    full = get_catalog().bare_space(inst.g_types[0], inst.items)
    assert rb.space == span(full.basis, 4)
    assert rs_.space == span(inst.aux["sat"].basis, 4)
    _report(7, "central cuts: dimension drop equals central dimension, "
               "endpoints reproduce the commutant and saturated spaces")


def test_criterion_8_normalizer_bookkeeping():
    catalog = get_catalog()
    checked = 0
    for entry in catalog.rows("T4.8"):
        # the normalizer rows are those of T3.6, number for number
        t36 = catalog.lookup("T3.6", entry.row)
        assert (entry.g_pattern, entry.constraints) == (t36.g_pattern, t36.constraints)
        for params in sample_params(entry):
            for c in verify_entry(entry, params):
                assert c.passed, str(c)
                checked += 1
    _report(8, f"dimension bookkeeping exact on {checked} normalizer rows")


def _random_t14_instances(rng, count):
    catalog = get_catalog()
    rows = catalog.rows("T1.4")
    out = []
    while len(out) < count:
        entry = rng.choice(rows)
        choices = []
        for i, params in enumerate(box_admissible_params(entry, bound=9)):
            choices.append(params)
            if i > 30:
                break
        if not choices:
            continue
        params = rng.choice(choices)
        inst = instantiate(entry, params)
        out.append((entry, params, inst))
    return out


def test_criterion_9_property_suites():
    rng = random.Random(20260810)
    t0 = time.perf_counter()
    runs = 0

    # additivity of decomposable sums
    instances = _random_t14_instances(rng, 30)
    for _ in range(30):
        (e1, p1, i1), (e2, p2, i2) = rng.sample(instances, 2)
        if len(i1.g_types) > 1 or len(i2.g_types) > 1:
            continue
        items = tuple(i1.items) + tuple(
            HItem(it.base, it.size, (1,), it.diag_type) for it in i2.items)
        combined = ReductivePair((i1.g_types[0], i2.g_types[0]), 0, items, None)
        r1 = cartan_space(ReductivePair(i1.g_types, 0, i1.items, None))
        r2 = cartan_space(ReductivePair(i2.g_types, 0, i2.items, None))
        rc = cartan_space(combined)
        n1 = i1.g_types[0].rank
        n2 = i2.g_types[0].rank
        expected = [tuple(b) + (Q(0),) * n2 for b in r1.space.basis]
        expected += [(Q(0),) * n1 + tuple(b) for b in r2.space.basis]
        assert rc.space == span(expected, n1 + n2)
        assert rc.complexity == r1.complexity + r2.complexity
        runs += 1

    # essential-part idempotence
    for entry, params, inst in instances:
        pair = ReductivePair(inst.g_types, 0, inst.items, None)
        res = cartan_space(pair)
        again = cartan_space(essential_pair(pair))
        assert again.space == res.space
        runs += 1
    for entry in get_catalog().rows("T1.6"):
        for params in sample_params(entry):
            inst = instantiate(entry, params)
            for center in (None, span([[1]], 1)):
                pair = ReductivePair(inst.g_types, 0, inst.items, center)
                res = cartan_space(pair)
                again = cartan_space(essential_pair(pair))
                assert again.space == res.space
                runs += 1

    # twist equivariance of rank and complexity
    for entry, params, inst in instances[:20]:
        pair = ReductivePair(inst.g_types, 0, inst.items, None)
        base = cartan_space(pair)
        node_perms = []
        for t in inst.g_types:
            autos = diagram_automorphisms(build_root_system(t))
            node_perms.append(rng.choice(autos))
        tw = Twist(tuple(range(len(inst.g_types))), tuple(node_perms))
        res = twist(pair, tw)
        assert res.rank == base.rank and res.complexity == base.complexity
        runs += 1

    # rank additivity across all central-extension families
    for entry in get_catalog().rows("T1.6"):
        base = sample_params(entry)[0]
        for params in ({k: v + delta for k, v in base.items()} for delta in (0, 2, 4)):
            inst = instantiate(entry, params)
            full = get_catalog().bare_space(inst.g_types[0], inst.items)
            assert full.dim == inst.aux["sat"].dim + 1
            bare = cartan_space(ReductivePair(inst.g_types, 0, inst.items, None))
            saturated = cartan_space(
                ReductivePair(inst.g_types, 0, inst.items, span([[1]], 1)))
            assert bare.rank == saturated.rank + 1
            runs += 1

    elapsed = time.perf_counter() - t0
    assert runs >= 100
    assert elapsed < 30.0, f"took {elapsed:.1f}s"
    _report(9, f"{runs} randomized property checks in {elapsed:.1f}s")


def test_criterion_10_certification_behavior():
    # every in-catalog query succeeds and carries a trace
    rows = survey_pairs(8)
    assert len(rows) > 50
    for _, pair, result in rows:
        assert result.trace, pair

    # out-of-catalog queries fail loudly
    rejects = [
        ReductivePair((sl(5),), 0, (HItem("sl", 2, (0,)),)),
        ReductivePair((so(11),), 0, (HItem("spin", 7, (0,)),)),
        ReductivePair((so(9),), 0, (HItem("g2", None, (0,)),)),
        ReductivePair((sp(8),), 0, (HItem("sp", 4, (0,)), HItem("sp", 2, (0,)))),
        ReductivePair((SimpleType("E", 8),), 0, (HItem("e6", None, (0,)),)),
    ]
    for pair in rejects:
        with pytest.raises(OutsideCatalogError):
            cartan_space(pair)

    # the full verification sweep runs clean: no failed checks and no
    # internal-consistency or contract errors escape
    import io

    buf = io.StringIO()
    status = cmd_verify("all", out=buf)
    assert status == 0
    assert "0 failed" in buf.getvalue()
    _report(10, f"{len(rows)} catalog queries certified with traces; "
                f"{len(rejects)} off-catalog queries rejected; verify-all clean")
