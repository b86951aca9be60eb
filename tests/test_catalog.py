from fractions import Fraction as Q

import pytest

from cartanspaces.catalog import (
    Catalog,
    HItem,
    ReductivePair,
    _parse_record,
    family_row_for_factor,
    get_catalog,
    instantiate,
    lookup,
    match_t14,
    minimal_params,
    shifted_params,
    verify_entry,
)
from cartanspaces.errors import ConstraintError, TableFormatError
from cartanspaces.exprs import check_relation, evaluate
from cartanspaces.rootsystems import SimpleType, sl, so, sp


def test_lookup_examples():
    e = lookup("T1.4", 3)
    assert e.g_pattern[0].base == "sl" and e.g_pattern[0].arg == "2*n"
    assert e.h_pattern[0].base == "sp"

    e = lookup("T1.6", 5)
    inst = instantiate(e, {})
    assert inst.g_types == (SimpleType("E", 6),)
    assert inst.aux["zgen"] == 1
    assert inst.aux["alpha_value"] == Q(4, 3)

    e = lookup("T3.2", "G")
    assert evaluate(e.aux["kform"], {}) == 16

    with pytest.raises(ConstraintError):
        lookup("T1.4", 99)


def test_instantiate_corner_row():
    e = lookup("T1.4", 1)
    inst = instantiate(e, {"n": 5, "k": 4})
    assert inst.g_types == (sl(5),)
    assert set(inst.gens) == {(1, 0, 0, 0), (0, 0, 0, 1)}

    with pytest.raises(ConstraintError) as err:
        instantiate(e, {"n": 5, "k": 2})
    assert "2*k>=n+2" in str(err.value)


def test_instantiate_diagonal_row():
    e = lookup("T1.4", 25)
    inst = instantiate(e, {"s": "A", "r": 2})
    assert inst.g_types == (SimpleType("A", 2), SimpleType("A", 2))
    # dual indices on the first block: pi*_1 = pi_2
    assert set(inst.gens) == {(0, 1, 1, 0), (1, 0, 0, 1)}


def test_every_row_instantiates_at_minimal_and_bumped():
    catalog = get_catalog()
    for (table, row), entry in sorted(catalog.entries.items()):
        if table == "T3.2":
            continue
        p0 = minimal_params(entry)
        instantiate(entry, p0)
        p2 = shifted_params(entry, 2)
        instantiate(entry, p2)


def test_records_round_trip():
    catalog = get_catalog()
    for key, entry in catalog.entries.items():
        rec = _parse_record(entry.record_line())
        rebuilt = Catalog._build_entry(rec)
        assert rebuilt == entry
        assert rebuilt.aux == entry.aux


def test_parse_error_reports_line_number(tmp_path, monkeypatch):
    src = get_catalog().data_dir
    for f in src.iterdir():
        (tmp_path / f.name).write_text(f.read_text())
    bad = tmp_path / "t32.tbl"
    bad.write_text(bad.read_text() + "\ntable=T3.2 row=Z g=Q9 kform=\"oops(\"\n")
    monkeypatch.setenv("CARTAN_DATA_DIR", str(tmp_path))
    with pytest.raises(TableFormatError) as err:
        Catalog(tmp_path)
    assert "t32.tbl:" in str(err.value)


def test_data_dir_override(tmp_path, monkeypatch):
    src = get_catalog().data_dir
    for f in src.iterdir():
        (tmp_path / f.name).write_text(f.read_text())
    monkeypatch.setenv("CARTAN_DATA_DIR", str(tmp_path))
    cat2 = get_catalog()
    assert cat2.data_dir == tmp_path
    assert lookup("T3.2", "G").aux["kform"] == "16"
    monkeypatch.delenv("CARTAN_DATA_DIR")
    assert get_catalog().data_dir == src


def test_match_t14_solves_parameters():
    matched = match_t14([sl(6)], [HItem("sp", 6, (0,))])
    assert matched is not None
    entry, params, fmap = matched
    assert entry.row == "3" and params == {"n": 3} and fmap == (0,)

    matched = match_t14([sp(4), sp(6)],
                        [HItem("sl", 2, (0,)), HItem("bridge", None, (0, 1)), HItem("sp", 4, (1,))])
    entry, params, fmap = matched
    assert entry.row == "26" and params == {"n": 2, "m": 3}

    # swapped factor order still matches through the permutation
    matched = match_t14([sp(6), sp(4)],
                        [HItem("sl", 2, (1,)), HItem("bridge", None, (0, 1)), HItem("sp", 4, (0,))])
    entry, params, fmap = matched
    assert entry.row == "26" and fmap == (1, 0)

    # a refusal names the nearest row and the inequality it breaks
    with pytest.raises(ConstraintError) as err:
        match_t14([sl(5)], [HItem("sl", 2, (0,))])
    assert str(err.value) == "T1.4:1 requires '2*k>=n+2', violated at {'k': 2, 'n': 5}"
    with pytest.raises(ConstraintError) as err:
        match_t14([sp(8), sp(8)],
                  [HItem("sp", 6, (0,)), HItem("bridge", None, (0, 1)), HItem("sp", 6, (1,))])
    assert str(err.value) == "T1.4:26 requires 'm>n', violated at {'m': 4, 'n': 4}"
    assert match_t14([sl(5)], [HItem("so", 5, (0,))]) is None


def test_family_rows():
    fam = family_row_for_factor(sl(5), [HItem("sl", 3, (0,))])
    assert fam is not None and fam[0].row == "1" and fam[1] == {"n": 5, "k": 3}
    assert family_row_for_factor(sl(4), [HItem("sl", 2, (0,))]) is None  # 2k = n
    fam = family_row_for_factor(sl(5), [HItem("sp", 4, (0,))])
    assert fam[0].row == "3" and fam[1] == {"n": 2}
    fam = family_row_for_factor(so(10), [HItem("sl", 5, (0,))])
    assert fam[0].row == "4" and fam[1] == {"n": 2}
    assert family_row_for_factor(so(8), [HItem("sl", 4, (0,))]) is None  # even case
    fam = family_row_for_factor(SimpleType("E", 6), [HItem("so", 10, (0,))])
    assert fam[0].row == "5"
    # the two-ideal family on one factor
    fam = family_row_for_factor(sl(7), [HItem("sl", 4, (0,)), HItem("sl", 3, (0,))])
    assert fam[0].row == "2" and fam[1] == {"n": 7, "k": 4}
    assert family_row_for_factor(sl(8), [HItem("sl", 4, (0,)), HItem("sl", 4, (0,))]) is None


def test_family_slots_and_pair_dims():
    pair = ReductivePair((sl(5),), 0, (HItem("sl", 3, (0,)),))
    assert pair.family_slots() == (0,)
    assert pair.dim_g == 24 and pair.dim_h == 8
    pair = ReductivePair((sl(6),), 0, (HItem("sp", 6, (0,)),))
    assert pair.family_slots() == ()
    assert pair.dim_h == 21
    pair = ReductivePair((sp(6), SimpleType("A", 1)), 0,
                         (HItem("sp", 4, (0,)), HItem("bridge", None, (0, 1))))
    assert pair.dim_h == 13
    with pytest.raises(ConstraintError):
        ReductivePair((sl(5),), 0, (HItem("sl", 3, (2,)),))


def test_item_sizes_are_checked():
    # sizes that name no algebra are input errors, not refusals of a pair
    for base, size, message in [("sp", 3, "sp(3) is not an algebra"),
                                ("so", 0, "so(0) is not available"),
                                ("sl", 1, "sl(1) is not simple"),
                                ("spin", 9, "only spin(7) is a named spinor subalgebra"),
                                ("sl", None, "sl needs an integer size, got None")]:
        with pytest.raises(ConstraintError) as err:
            HItem(base, size, (0,))
        assert str(err.value) == message
    for base, size in [("sp", 2), ("so", 3), ("sl", 2), ("spin", 7), ("g2", None)]:
        HItem(base, size, (0,))


def test_t48_ideal_conditions_match_semisimple_table():
    # the corner row's lone-ideal condition must coincide with the
    # admissible range of the semisimple corner row
    t48 = lookup("T4.8", 1)
    t14 = lookup("T1.4", 1)
    for n in range(2, 12):
        for k in range(n // 2 + 1, n):
            inst = instantiate(t48, {"n": n, "k": k})
            lone = next(cond for seq, cond in inst.aux["ideals"] if seq == (1,))
            in_t14 = all(check_relation(c, {"n": n, "k": k}) for c in t14.constraints)
            assert lone == in_t14, (n, k)


def test_t48_row4_not_exhaustive():
    inst = instantiate(lookup("T4.8", 4), {"n": 3, "k": 2})
    assert inst.aux["exhaustive"] is False
    inst = instantiate(lookup("T4.8", 5), {"n": 7, "k": 5})
    assert inst.aux["exhaustive"] is True


def test_verify_entry_t48_bookkeeping_example():
    # normalizer sp(6) inside sl(6) with one 14-dimensional module: 35 = 21 + 14
    checks = verify_entry(lookup("T4.8", 2), {"n": 3})
    assert all(c.passed for c in checks)
    assert "35" in checks[0].detail and "21" in checks[0].detail and "14" in checks[0].detail


def test_verify_entry_all_rows():
    catalog = get_catalog()
    for (table, row), entry in sorted(catalog.entries.items()):
        if table == "T3.2":
            checks = verify_entry(entry, {"l": 4} if entry.variables() else {})
        else:
            checks = verify_entry(entry, minimal_params(entry))
        assert all(c.passed for c in checks), [str(c) for c in checks if not c.passed]
