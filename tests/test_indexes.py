from fractions import Fraction as Q

import pytest

from cartanspaces.catalog import (
    HItem,
    admissible_params,
    get_catalog,
    instantiate,
    sample_params,
)
from cartanspaces.errors import ConstraintError
from cartanspaces.indexes import dynkin_index_of, module_index_complement_types, per_factor_index
from cartanspaces.pairs import format_pair
from cartanspaces.rootsystems import SimpleType, sl, so, sp


def test_unit_indices():
    assert dynkin_index_of(HItem("sl", 3, (0,)), [sl(6)]) == 1     # corner
    assert dynkin_index_of(HItem("sl", 6, (0,)), [sl(6)]) == 1     # identity embedding
    assert dynkin_index_of(HItem("sp", 4, (0,)), [sl(7)]) == 1
    assert dynkin_index_of(HItem("spin", 7, (0,)), [so(10)]) == 1
    assert dynkin_index_of(HItem("g2", None, (0,)), [so(7)]) == 1
    assert dynkin_index_of(HItem("so", 9, (0,)), [SimpleType("F", 4)]) == 1


def test_diagonal_additivity():
    item = HItem("diag", None, (0, 1), SimpleType("A", 2))
    assert dynkin_index_of(item, [SimpleType("A", 2), SimpleType("A", 2)]) == 2
    bridge = HItem("bridge", None, (0, 1))
    assert dynkin_index_of(bridge, [sp(6), SimpleType("A", 1)]) == 2


def test_orthogonal_inside_special_linear_doubles():
    assert per_factor_index(HItem("so", 5, (0,)), sl(7)) == 2


def test_unsupported_shape():
    with pytest.raises(ConstraintError):
        per_factor_index(HItem("sl", 4, (0,)), sp(8))
    with pytest.raises(ConstraintError):
        per_factor_index(HItem("e7", None, (0,)), SimpleType("E", 6))


def test_complement_index_values():
    for g, item, want in [
        (sl(4), HItem("sp", 4, (0,)), Q(1, 3)),
        (sl(4), HItem("sl", 2, (0,)), 1),
        (so(8), HItem("so", 5, (0,)), 1),
        (so(8), HItem("so", 6, (0,)), Q(1, 2)),
        (SimpleType("G", 2), HItem("sl", 3, (0,)), Q(1, 3)),
    ]:
        assert module_index_complement_types(g, item, per_factor_index(item, g)) == want


def test_k_monotonicity_over_all_catalog_embeddings():
    # every proper embedding listed in the tables strictly lowers the
    # long-root pairing sum
    catalog = get_catalog()
    for table in ("T3.4", "T3.6", "T3.7"):
        for entry in catalog.rows(table):
            for params in sample_params(entry):
                inst = instantiate(entry, params)
                h_type = inst.items[0].simple_type
                g_type = inst.g_types[0]
                if h_type == g_type:
                    continue  # the identity embedding is allowed in T3.4
                assert _k(h_type) < _k(g_type), (entry.row_id, params)


def test_partition_sweep():
    catalog = get_catalog()
    for entry in catalog.rows("T3.6"):
        for params in sample_params(entry):
            inst = instantiate(entry, params)
            idx = dynkin_index_of(inst.items[0], list(inst.g_types))
            l = Q(idx) * _k(inst.g_types[0]) / _k(inst.items[0].simple_type) - 1
            assert l < 1, (entry.row_id, params, l)
    for entry in catalog.rows("T3.7"):
        for params in sample_params(entry):
            inst = instantiate(entry, params)
            idx = dynkin_index_of(inst.items[0], list(inst.g_types))
            l = Q(idx) * _k(inst.g_types[0]) / _k(inst.items[0].simple_type) - 1
            assert l == 1, (entry.row_id, params, l)


# Two T3.4 embeddings are the D4 triality images of table pairs, which T3.6
# and T3.7 list only under their so(k) names: so(8)/sl(4) is T3.6:5's
# so(8)/so(6), and so(8)/sp(4) is T3.7:4's so(8)/so(5)
TRIALITY = {"so(8)/so(6)": "so(8)/sl(4)", "so(8)/so(5)": "so(8)/sp(4)"}


def _with_images(pairs: set) -> set:
    return pairs | {TRIALITY[p] for p in pairs & TRIALITY.keys()}


def _instances(table: str):
    for entry in get_catalog().rows(table):
        for params in admissible_params(entry, 12):
            yield instantiate(entry, params)


def _index_partition():
    """The T3.4 embeddings up to rank 12 with complement index below 1 and
    exactly 1 (h = g left out), and the classical-g T3.6 and T3.7 instances
    of that range, as pair texts; and the T3.4 counts (all, h = g)."""
    below, at_1, counts = set(), set(), [0, 0]
    for inst in _instances("T3.4"):
        g, item = inst.g_types[0], inst.items[0]
        counts[0] += 1
        if item.simple_type == g:
            counts[1] += 1
            continue
        index = module_index_complement_types(g, item, dynkin_index_of(item, [g]))
        if index <= 1:
            (below if index < 1 else at_1).add(format_pair(inst.pair))
    t36, t37 = ({format_pair(inst.pair) for inst in _instances(table)
                 if inst.g_types[0].series in "ABCD"} for table in ("T3.6", "T3.7"))
    return below, at_1, t36, t37, counts


def test_index_partition_of_t34_is_t36_and_t37():
    below, at_1, t36, t37, counts = _index_partition()
    assert counts == [646, 42]
    assert (len(below), len(t36), len(at_1), len(t37)) == (226, 225, 35, 34)
    assert below == t36 | {"so(8)/sl(4)"} == _with_images(t36)
    assert at_1 == t37 | {"so(8)/sp(4)"} == _with_images(t37)
    # item 1's boundary so(2r)/so(r+1) is an index-1 pair
    assert {"so(8)/so(5)", "so(24)/so(13)"} <= at_1


@pytest.mark.parametrize("name, old, new, count, example", [
    # a T3.6 constraint tightened by one: the 19 so(n)/so(k) at 2k = n+3 or
    # n+4 leave T3.6, so(8)/so(6) among them, and so its image so(8)/sl(4)
    ("t36.tbl", "2*k>n+2", "2*k>n+4", 20, "so(10)/so(7)"),
    # a T3.7 row deleted: so(2n)/sl(n-1) for n = 4..12
    ("t37.tbl", "table=T3.7 row=5 ", "#", 9, "so(10)/sl(4)"),
])
def test_index_partition_catches_a_planted_fault(planted_tables, name, old, new, count, example):
    planted_tables(old, new, name)
    below, at_1, t36, t37, _ = _index_partition()
    differ = (below ^ _with_images(t36)) | (at_1 ^ _with_images(t37))
    assert len(differ) == count and example in differ


def _k(t):
    from cartanspaces.rootsystems import build_root_system, k_value

    return k_value(build_root_system(t))
