from fractions import Fraction as Q

import pytest

from cartanspaces.catalog import HItem, get_catalog, instantiate, sample_params
from cartanspaces.errors import ConstraintError
from cartanspaces.indexes import dynkin_index_of, module_index_complement_types, per_factor_index
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


def _k(t):
    from cartanspaces.rootsystems import build_root_system, k_value

    return k_value(build_root_system(t))
