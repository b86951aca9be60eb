import itertools
import random
from fractions import Fraction as Q

import pytest

from cartanspaces import catalog as cat
from cartanspaces.catalog import (
    Catalog,
    HItem,
    ReductivePair,
    admissible_params,
    family_row_for_factor,
    get_catalog,
    instantiate,
    lookup,
    match_t14,
    sample_params,
    verify_entry,
)
from cartanspaces.cli import main, survey_pairs
from cartanspaces.errors import ConstraintError, DimensionError, TableFormatError
from cartanspaces.exprs import check_relation, evaluate, variables
from cartanspaces.ratlinalg import dot, rref, span
from cartanspaces.rootsystems import (
    AMBIENT_CEILING,
    RANK_CEILING,
    SimpleType,
    cartan_matrix,
    sl,
    so,
    sp,
)
from reference_params import box_admissible_params


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
        for params in sample_params(entry):
            instantiate(entry, params)


def _rank(entry, params) -> int:
    return sum(tp.resolve(params).rank for tp in entry.g_pattern)


def _enumeration_mismatches() -> list:
    """(row, R) for each T1.4/T1.6 row and R = 0..12 where the rank-bounded
    enumerator differs from the reference box over 1..2R+3 with the rank
    filter the survey applied to it."""
    catalog = get_catalog()
    out = []
    for entry in catalog.rows("T1.4") + catalog.rows("T1.6"):
        for max_rank in range(13):
            want = [p for p in box_admissible_params(entry, 2 * max_rank + 3)
                    if _rank(entry, p) <= max_rank]
            if list(cat.admissible_params(entry, max_rank)) != want:
                out.append((entry.row_id, max_rank))
    return out


def test_enumerator_equals_the_box_with_the_rank_filter():
    assert _enumeration_mismatches() == []


@pytest.mark.parametrize("base, size", [("so", (2, 0)), ("sl", (1, 0))])
def test_enumeration_check_catches_a_short_size_bound(monkeypatch, base, size):
    # so(2R+1) or sl(R+1) left out of the variable domains
    monkeypatch.setitem(cat._MAX_SIZE, base, size)
    assert _enumeration_mismatches() != []


def test_sampling_and_minimal_params_equal_the_box():
    for (table, _), entry in sorted(get_catalog().entries.items()):
        if table == "T3.2":
            assert cat.sample_params(entry) == list(box_admissible_params(entry, 12))
        # least rank, then lexicographic: the box's first hit on every row
        assert sample_params(entry)[0] == next(box_admissible_params(entry, 40)), entry.row_id


def test_the_shifted_sample_is_kept_exactly_when_admissible():
    # one rule: verify's second sample is the least parameters raised by 2,
    # kept exactly when the enumerator yields it at its own rank (45 of the
    # 90 rows outside T3.2)
    kept = 0
    for (table, _), entry in sorted(get_catalog().entries.items()):
        if table == "T3.2":
            continue
        samples = sample_params(entry)
        shifted = {k: (v if isinstance(v, str) else v + 2) for k, v in samples[0].items()}
        try:
            rank = _rank(entry, shifted)
        except (ConstraintError, TableFormatError):
            rank = None
        admissible = (shifted != samples[0] and rank is not None
                      and shifted in admissible_params(entry, rank))
        assert samples[1:] == ([shifted] if admissible else []), entry.row_id
        kept += admissible
    assert kept == 45


def test_parse_error_reports_line_number(planted_tables):
    # a bad record after the last one
    tables = planted_tables('g=G2   kform="16"', 'g=G2   kform="16"\n'
                            'table=T3.2 row=Z g=Q9 kform="oops("', "t32.tbl")
    with pytest.raises(TableFormatError) as err:
        Catalog(tables)
    assert "t32.tbl:" in str(err.value)


@pytest.mark.parametrize("name, old, new, message", [
    # a fault in a record fails the load at its file and line, before any row is used
    ("t14.tbl", 'constraint="n>=2; 2*k>=n+2', 'constriant="n>=2; 2*k>=n+2',
     "t14.tbl:8: unknown field 'constriant'"),
    ("t16.tbl", "row=5 ", "", "t16.tbl:12: record needs a known table= and a row="),
    ("t16.tbl", 'lam="pi(1)"       alpha="4/3"', 'alpha="4/3"',
     "t16.tbl:12: T1.6 row needs field 'lam'"),
    ("t48.tbl", "1,2\" exhaustive=false", "1,2\" exhaustive=flase",
     "t48.tbl:16: exhaustive must be true or false, got 'flase'"),
    # the saturated space is a weight list and the Dynkin index is not stored
    ("t16.tbl", 'sat="pi(i)+pi(n-i) : i=1..n-k | pi(1)+pi(i)+pi(n-i-1) : i=1..n-k-1"',
     'cut="c(i)=i : i=1..n-k | c(n-i)=-i : i=1..n-k"', "t16.tbl:8: unknown field 'cut'"),
    # a(g, h) is read off T1.4, so a row that still stores it fails the load
    ("t16.tbl", 'sat="pi(1)+pi(5) | pi(6)"',
     'full="pi(1) | pi(5) | pi(6)" sat="pi(1)+pi(5) | pi(6)"', "t16.tbl:12: unknown field 'full'"),
    ("t36.tbl", 'constraint="n>=2"', 'constraint="n>=2" idx=1', "t36.tbl:5: unknown field 'idx'"),
    # a normalizer row takes g, h and constraint from the T3.6 row of its number
    ("t48.tbl", "row=2  norm=", "row=2  g=sl(2*n) norm=", "t48.tbl:14: unknown field 'g'"),
    ("t48.tbl", "row=19 ", "row=20 ", "t48.tbl:31: T4.8 row 20 has no T3.6 row"),
    ("t14.tbl", 'gens="pi(3)"', 'gens="pi(3)" idx=1', "t14.tbl:20: unknown field 'idx'"),
    ("t32.tbl", 'kform="16"', 'kform="16" kform="17"', "t32.tbl:11: field 'kform' given twice"),
    # factor numbers: item targets and weight terms within g, module terms within the
    # simple factors of norm
    ("t14.tbl", "h=diag@1,2", "h=diag@a,2", "t14.tbl:32: bad item targets 'a,2'"),
    ("t14.tbl", "h=diag@1,2", "h=diag@0,2",
     "t14.tbl:32: item target 0 is not one of the 2 factors of g"),
    ("t14.tbl", "h=diag@1,2", "h=diag@1,3",
     "t14.tbl:32: item target 3 is not one of the 2 factors of g"),
    ("t14.tbl", "h=diag@1,2", "h=diag@1,1", "t14.tbl:32: item targets '1,1' name a factor twice"),
    ("t48.tbl", 'mods="tau(1)*tau(2)"', 'mods="tau(1)*tau(3)"',
     "t48.tbl:16: module term factor 3 is not one of the 2 simple factors of norm"),
    # an ideal names positions among all factors of norm, Z included, and its
    # conditions name the row's parameters
    ("t48.tbl", 'mods="rep(1,2)"                                                    ideals="1"',
     'mods="rep(1,2)"                                                    ideals="1,9 | 7:n<=0"',
     "t48.tbl:14: ideal factor 9 is not one of the 1 factors of norm"),
    ("t48.tbl", 'mods="rep(1,2)"                                                    ideals="1"',
     'mods="rep(1,2)"                                                    ideals="1:k>0"',
     "t48.tbl:14: ideal condition variable 'k' is not one of the 1 parameters of the row"),
    ("t14.tbl", 'gens="pi(i),pi(n-i) : i=1..n-k"', 'gens="pi(i),pi\'(n-i) : i=1..n-k"',
     "t14.tbl:8: weight term factor 2 is not one of the 1 factors of g"),
    # a T1.6 row's lam is one weight
    ("t16.tbl", 'lam="pi(1)"       alpha="k/n"', 'lam="pi(1) | pi(2)" alpha="k/n"',
     "t16.tbl:8: lam must be one weight sum, with no range"),
    ("t16.tbl", 'lam="pi(1)"       alpha="k/n"', 'lam="" alpha="k/n"',
     "t16.tbl:8: lam must be one weight sum, with no range"),
    # a rep term's highest weight is a fundamental weight, counted from 1
    ("t48.tbl", 'mods="rep(1,2) + z(1)', 'mods="rep(1,0) + z(1)',
     "t48.tbl:15: module term 'rep(1,0)' names highest weight 0; fundamental weights count from 1"),
    # an expression outside the grammar
    ("t14.tbl", 'constraint="n>=2; 2*k>=n+2', 'constraint="n>=2; 2**k>=n+2',
     "t14.tbl:8: unexpected '2 ** k' in expression '2**k>=n+2'"),
    ("t16.tbl", 'alpha="4/3"', 'alpha="4.0/3"',
     "t16.tbl:12: expression '4.0/3' holds a token outside the grammar"),
    # a field, pattern, item, weight term, range, module term or ideal
    # sequence outside the record grammar
    ("t14.tbl", "row=1  g=sl(n) ", "row=1  g=sl(n) ! ", "t14.tbl:8: malformed field at column 27"),
    ("t14.tbl", "row=1  g=sl(n) ", "row=1  g=sl(n ", "t14.tbl:8: bad type pattern 'sl(n'"),
    ("t14.tbl", "row=1  g=sl(n) ", "row=1  g=sl ", "t14.tbl:8: bad argument in type pattern 'sl'"),
    ("t14.tbl", "row=13 g=so(7) ", "row=13 g=G2(7) ",
     "t14.tbl:20: bad argument in type pattern 'G2(7)'"),
    ("t14.tbl", "h=sl(k)    ", "h=xx(k)    ", "t14.tbl:8: bad subalgebra item 'xx(k)'"),
    ("t14.tbl", 'gens="pi(i),pi(n-i) : i=1..n-k"', 'gens="pi(i),rho(n-i) : i=1..n-k"',
     "t14.tbl:8: bad weight term 'rho(n-i)'"),
    ("t14.tbl", 'gens="pi(i),pi(n-i) : i=1..n-k"', 'gens="pi(i),pi(n-i) : i=1"',
     "t14.tbl:8: bad range ' i=1'"),
    ("t48.tbl", 'mods="tau(1)*tau(2)"', 'mods="tau(1)*tua(2)"', "t48.tbl:16: bad module term 'tua(2)'"),
    ("t48.tbl", 'mods="rep(1,2)"                                                    ideals="1"',
     'mods="rep(1,2)"                                                    ideals="a"',
     "t48.tbl:14: bad ideal sequence 'a'"),
    # a digit that int() does not read is no number
    ("t48.tbl", 'mods="rep(1,2)"                                                    ideals="1"',
     'mods="rep(1,2)"                                                    ideals="²"',
     "t48.tbl:14: bad ideal sequence '²'"),
    ("t14.tbl", "h=diag@1,2", "h=diag@1,²", "t14.tbl:32: bad item targets '1,²'"),
    # one row, one number
    ("t14.tbl", "row=2  g", "row=1  g", "t14.tbl:9: duplicate row ('T1.4', '1')"),
])
def test_planted_table_faults_fail_the_load(planted_tables, capsys, name, old, new, message):
    planted_tables(old, new, name)
    with pytest.raises(TableFormatError) as err:
        get_catalog()
    assert str(err.value).startswith(message)
    assert main(["verify", "all"]) == 1
    assert capsys.readouterr().err.startswith(f"error: {message}")


def test_a_missing_table_file_fails_the_load(planted_tables, capsys):
    tables = planted_tables()
    (tables / "t37.tbl").unlink()
    with pytest.raises(TableFormatError, match="^missing table file .*t37.tbl$"):
        get_catalog()
    assert main(["verify", "all"]) == 1
    assert capsys.readouterr().err == f"error: missing table file {tables / 't37.tbl'}\n"


def test_a_tautological_term_of_an_exceptional_factor_fails_verify(planted_tables, capsys):
    # G2 has no size, so tau(1) names no module; verify names the row
    planted_tables('norm="so(7)*so(n-8)"', 'norm="G2*so(n-8)"   ', "t48.tbl")
    assert main(["verify", "T4.8"]) == 1
    failed = [line for line in capsys.readouterr().out.splitlines() if line.startswith("[FAIL]")]
    assert failed == [f"[FAIL] T4.8:8 instantiates at {{'n': {n}}}: no tautological module "
                      "size for 'G2'" for n in (9, 11)]


def test_rep_weight_above_the_factor_rank_fails_verify(planted_tables, capsys):
    # the rank of the norm factor sp(2*n) is known only at parameters, so
    # the instantiation fails and verify names the row, without a traceback
    planted_tables('mods="rep(1,2) + z(1)', 'mods="rep(1,99) + z(1)', "t48.tbl")
    assert main(["verify", "T4.8"]) == 1
    failed = [line for line in capsys.readouterr().out.splitlines() if line.startswith("[FAIL]")]
    assert failed == [
        f"[FAIL] T4.8:3 instantiates at {{'n': {n}}}: module term rep(1,99) names "
        f"fundamental weight 99 of sp({2 * n}), which has rank {n}" for n in (2, 4)]


def test_row_without_parameters_fails_verify(planted_tables, capsys):
    # no rank up to the search's limit admits T1.4:3 at n>=50: one failed
    # check names the row, the other rows are still checked, no traceback
    planted_tables('h=sp(2*n)                      constraint="n>=2"',
                 'h=sp(2*n)                      constraint="n>=50"')
    assert main(["verify", "all"]) == 1
    out = capsys.readouterr().out
    failed = [line for line in out.splitlines() if line.startswith("[FAIL]")]
    assert failed == ["[FAIL] T1.4:3 admissible parameters: "
                      "T1.4:3 has no admissible parameters up to rank 40"]
    assert "T4.8:19" in out and out.endswith(" checks, 1 failed\n")


def test_misspelt_field_is_not_answered(planted_tables, capsys):
    # with the constraint dropped, T1.4:1 would match sl(5)/sl(2) and exit 0
    planted_tables('constraint="n>=2; 2*k>=n+2', 'constriant="n>=2; 2*k>=n+2')
    # the central pair and the table reference read the tables while parsing;
    # the load error is still the tables', not the input's
    for argv in (["compute", "sl(5)/sl(2)"], ["verify", "all"], ["survey", "--max-rank", "4"],
                 ["compute", "sl(5)/sl(3)+z=[pi_v(2)]"], ["compute", "sl(6)/T1.4:3(n=3)"]):
        assert main(argv) == 1
        assert capsys.readouterr().err == "error: t14.tbl:8: unknown field 'constriant'\n"


@pytest.mark.parametrize("old, new, text, at, survey_at, verify_failed", [
    # lam in sat
    ('lam="pi(1)"       alpha="4/3"', 'lam="pi(6)"       alpha="4/3"',
     "E6/so(10)+z=[pi_v(1)]", "T1.6:5 at {}", "T1.6:5 at {}",
     ["[FAIL] T1.6:5 duality-weight-separates at {}: weight lies in the saturated space",
      "[FAIL] T1.6:5 runs its checks at {}: "
      "duality weight lies in the saturated space; functional unsolvable"]),
    # sat of codimension 2 in a(g, h) wherever the dropped group is nonempty.  verify
    # cannot see it: the group is empty at both of T1.6:1's sample parameter sets
    # (n, k) = (3, 2) and (5, 4), which ROADMAP item 8 would widen
    (" | pi(1)+pi(i)+pi(n-i-1) : i=1..n-k-1", "", "sl(7)/sl(4)+z=[pi_v(3)]",
     "T1.6:1 at {'k': 4, 'n': 7}", "T1.6:1 at {'k': 3, 'n': 5}", []),
    # sat not inside a(g, h), which T1.4:10 gives
    ('sat="pi(2*i) : i=1..n-1 |', 'sat="pi(1) | pi(2*i) : i=1..n-1 |',
     "so(10)/sl(5)+z=[pi_v(5)]", "T1.6:4 at {'n': 2}", "T1.6:4 at {'n': 2}",
     [f"[FAIL] T1.6:4 saturated-inside-full-codim-1 at {{'n': {n}}}: dims {d} inside {d}"
      for n, d in ((2, 3), (4, 5))]),
], ids=["lam-in-sat", "sat-too-small", "sat-outside-full"])
def test_planted_family_row_faults_are_contract_errors(planted_tables, capsys, old, new,
                                                       text, at, survey_at, verify_failed):
    # sat and lam must split a(g, h), read off T1.4, into a hyperplane and a
    # weight off it; each fault is refused where the row is first used
    contract = "sat and lam do not split a(g, h) into a hyperplane and a weight off it"
    planted_tables(old, new, "t16.tbl")
    assert main(["compute", text]) == 1
    assert capsys.readouterr().err == f"error: {at}: {contract}\n"
    assert main(["survey", "--max-rank", "12"]) == 1
    # the survey names the row once
    assert capsys.readouterr().err == f"error: {survey_at}: {contract}\n"
    assert main(["verify", "T1.6"]) == (1 if verify_failed else 0)
    # a failed check says which part failed
    out = capsys.readouterr().out
    assert [line for line in out.splitlines() if line.startswith("[FAIL]")] == verify_failed


@pytest.mark.parametrize("old, new, message", [
    ("g=sl(n) ", "g=sl(n*n) ", "'n*n' is not affine"),
    ('constraint="n>=2"', 'constraint="n>=2; j>=1"', "'j' occurs alone in no pattern"),
])
def test_row_variables_must_occur_alone_in_affine_arguments(planted_tables, old, new, message):
    # matching binds every variable through such an argument
    planted_tables(old, new)
    with pytest.raises(TableFormatError) as err:
        get_catalog()
    assert str(err.value).startswith("t14.tbl:") and message in str(err.value)


@pytest.mark.parametrize("name, old, new, message", [
    ("t34.tbl", 'constraint="k<=n; n>=2', 'constraint="j<=n; k<=n; n>=2',
     "'j' occurs alone in no pattern"),
    ("t48.tbl", 'norm="sl(k)*sl(n-k)*Z"', 'norm="sl(k*k)*sl(n-k)*Z"', "'k*k' is not affine"),
])
def test_every_table_bounds_its_variables_by_affine_arguments(planted_tables,
                                                              name, old, new, message):
    # the parameter enumeration bounds each variable through such an
    # argument, norm arguments included, in the tables matching never reads
    planted_tables(old, new, name)
    with pytest.raises(TableFormatError) as err:
        get_catalog()
    assert str(err.value).startswith(f"{name}:") and message in str(err.value)


def test_data_dir_override(tmp_path, monkeypatch, planted_tables):
    src = get_catalog().data_dir
    planted_tables()
    cat2 = get_catalog()
    assert cat2.data_dir == tmp_path
    assert lookup("T3.2", "G").aux["kform"] == "16"
    assert family_row_for_factor(sl(5), [HItem("sl", 3, (0,))]).entry is lookup("T1.6", 1)
    monkeypatch.delenv("CARTAN_DATA_DIR")
    assert get_catalog().data_dir == src
    # family rows are cached by the catalog, so none from the other directory
    assert family_row_for_factor(sl(5), [HItem("sl", 3, (0,))]).entry is lookup("T1.6", 1)


def test_two_plants_in_one_test_are_both_read(planted_tables):
    # the second edit is read although the catalog already read the first
    planted_tables('g=G2   kform="16"', 'g=G2   kform="17"', "t32.tbl")
    assert lookup("T3.2", "G").aux["kform"] == "17"
    planted_tables('h=sl(2*n+1)                    constraint="n>=2"',
                   'h=sl(2*n+1)                    constraint="n>=1"')
    assert lookup("T3.2", "G").aux["kform"] == "17"
    assert lookup("T1.4", 10).constraints == ("n>=1",)


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
    # an item larger than its factor still binds k and names the bound it breaks
    with pytest.raises(ConstraintError) as err:
        match_t14([sl(4)], [HItem("sl", 7, (0,))])
    assert str(err.value) == "T1.4:1 requires 'k<=n', violated at {'k': 7, 'n': 4}"


def _reference_assignments(entry, g_types, _sizes):
    """The bounded search that matching used before binding parameters from
    sizes: every variable over 0..(largest factor size)+2, each factor tested
    as soon as all of its variables are bound."""
    bound = max((t.classical_size or (t.rank + 1)) for t in g_types) + 2
    names = list(entry.variables)
    domain = {v: sorted({t.series for t in g_types}) if v == "s" else range(bound + 1)
              for v in names}
    checkpoints = [[] for _ in range(len(names) + 1)]
    for f, tp in enumerate(entry.g_pattern):
        needed = (variables(tp.arg) if tp.arg else set()) | ({"s"} if tp.base == "X" else set())
        last = max((i + 1 for i, v in enumerate(names) if v in needed), default=0)
        checkpoints[last].append(f)

    def rec(i, params):
        for f in checkpoints[i]:
            if not cat._pattern_matches_type(entry.g_pattern[f], g_types[f], params):
                return
        if i == len(names):
            yield dict(params)
            return
        for value in domain[names[i]]:
            params[names[i]] = value
            yield from rec(i + 1, params)
        del params[names[i]]

    yield from rec(0, {})


def _matching_shapes():
    """Factors and items of every survey pair up to rank 6, then seeded
    one- and two-item shapes whose items are no larger than their factor."""
    shapes = [(pair.factors, pair.items) for _, pair, _ in survey_pairs(6)]
    rng = random.Random(2006)
    kinds = {"sl": (sl, 2, 1), "so": (so, 5, 1), "sp": (sp, 4, 2)}
    for _ in range(150):
        make, lo, step = kinds[rng.choice(sorted(kinds))]
        n = rng.randrange(lo, 11, step)
        items = []
        for _ in range(rng.randint(1, 2)):
            base = rng.choice(["sl", "so", "sp"])
            lo_item, step_item = {"sl": (2, 1), "so": (3, 1), "sp": (2, 2)}[base]
            if n >= lo_item:
                items.append(HItem(base, rng.randrange(lo_item, n + 1, step_item), (0,)))
        shapes.append(((make(n),), tuple(items)))
    return shapes


def test_candidates_match_the_bounded_search(monkeypatch):
    # binding parameters from sizes yields exactly the old candidates, in
    # the same order, whenever the old bound cut nothing off
    rows = get_catalog().rows("T1.4") + get_catalog().rows("T1.6")
    shapes = _matching_shapes()
    cases = list(itertools.product(shapes, rows))
    solved = [list(cat._candidates(entry, g, items)) for (g, items), entry in cases]
    monkeypatch.setattr(cat, "_solve_assignments", _reference_assignments)
    for ((g, items), entry), got in zip(cases, solved):
        assert got == list(cat._candidates(entry, g, items)), (entry.row_id, g, items)
    violations = [violated for found in solved for _, _, violated in found]
    assert None in violations and len(set(violations)) >= 10  # matches and near misses


def test_family_rows():
    fam = family_row_for_factor(sl(5), [HItem("sl", 3, (0,))])
    assert fam is not None and fam.entry.row == "1" and fam.params == {"n": 5, "k": 3}
    assert family_row_for_factor(sl(4), [HItem("sl", 2, (0,))]) is None  # 2k = n
    fam = family_row_for_factor(sl(5), [HItem("sp", 4, (0,))])
    assert fam.entry.row == "3" and fam.params == {"n": 2}
    fam = family_row_for_factor(so(10), [HItem("sl", 5, (0,))])
    assert fam.entry.row == "4" and fam.params == {"n": 2}
    assert family_row_for_factor(so(8), [HItem("sl", 4, (0,))]) is None  # even case
    fam = family_row_for_factor(SimpleType("E", 6), [HItem("so", 10, (0,))])
    assert fam.entry.row == "5"
    # the two-ideal family on one factor
    fam = family_row_for_factor(sl(7), [HItem("sl", 4, (0,)), HItem("sl", 3, (0,))])
    assert fam.entry.row == "2" and fam.params == {"n": 7, "k": 4}
    assert family_row_for_factor(sl(8), [HItem("sl", 4, (0,)), HItem("sl", 4, (0,))]) is None


def test_family_slots_and_pair_dims():
    pair = ReductivePair((sl(5),), 0, (HItem("sl", 3, (0,)),))
    assert tuple(pair.families) == (0,)
    assert pair.dim_g == 24 and pair.dim_h == 8
    pair = ReductivePair((sl(6),), 0, (HItem("sp", 6, (0,)),))
    assert tuple(pair.families) == ()
    assert pair.dim_h == 21
    pair = ReductivePair((sp(6), SimpleType("A", 1)), 0,
                         (HItem("sp", 4, (0,)), HItem("bridge", None, (0, 1))))
    assert pair.dim_h == 13
    with pytest.raises(ConstraintError):
        ReductivePair((sl(5),), 0, (HItem("sl", 3, (2,)),))


def test_items_that_do_not_fit_their_factors_are_refused():
    # each was accepted as a pair, which `cartan_space` then refused as
    # outside the tables; now it is an input error at construction
    with pytest.raises(ConstraintError, match="targets factor 1 of type A3"):
        ReductivePair((sl(4), sl(4)), 0, (HItem("diag", None, (0, 1), sl(3)),))
    for base, size, targets, dtype in [("diag", None, (0,), sl(4)), ("bridge", None, (0,), None),
                                       ("sl", 2, (0, 1), None)]:
        with pytest.raises(ConstraintError, match=f"{base} lives in"):
            HItem(base, size, targets, dtype)
    with pytest.raises(ConstraintError, match="diag needs its type"):
        HItem("diag", None, (0, 1))
    # a two-factor item in one factor twice
    for item in [("bridge", None, (0, 0)), ("diag", None, (1, 1), sl(3))]:
        with pytest.raises(ConstraintError, match=f"{item[0]} names factor {item[2][0] + 1} twice"):
            HItem(*item)


def test_zero_central_part_is_refused():
    # it would print as sl(5)/sl(3), which parses back without a center
    with pytest.raises(ConstraintError) as err:
        ReductivePair((sl(5),), 0, (HItem("sl", 3, (0,)),), span([], 1))
    assert str(err.value) == "zero central part; leave the center out"


def test_central_part_in_the_wrong_ambient_is_refused():
    # sl(5)+center(1)/sl(3) has center(1) and one family slot: ambient 2
    items = (HItem("sl", 3, (0,)),)
    with pytest.raises(DimensionError, match="^central subspace ambient 3, expected 2$"):
        ReductivePair((sl(5),), 1, items, span([[1, 0, 0]], 3))
    assert ReductivePair((sl(5),), 1, items, span([[1, 0]], 2)).center.dim == 1


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


def test_weight_ambient_is_bounded():
    # rank of g plus the center; no root system is built to check it
    assert ReductivePair((sl(RANK_CEILING + 1),) * 3, AMBIENT_CEILING - 3 * RANK_CEILING)
    for factors, center in [((), AMBIENT_CEILING + 1), ((sl(RANK_CEILING + 1),) * 5, 0)]:
        with pytest.raises(ConstraintError) as err:
            ReductivePair(factors, center)
        assert str(err.value).endswith(f"is above {AMBIENT_CEILING}")


# T1.6:1 and T1.6:3 once stored their saturated spaces as the kernel in
# a(g, h) of these functionals: integer coefficients on the pi-coordinates
_FORMER_CUTS = {
    "1": lambda n, k: {**{i: i for i in range(1, n - k + 1)},
                       **{n - i: -i for i in range(1, n - k + 1)}},
    "3": lambda n: {**{2 * i + 1: n - i for i in range(n)},
                    **{2 * i: -i for i in range(1, n + 1)}},
}


def test_saturated_lists_equal_the_former_cuts():
    checked = 0
    for row, coeffs in _FORMER_CUTS.items():
        entry = lookup("T1.6", row)
        for params in admissible_params(entry, 40):
            inst = instantiate(entry, params)
            full, sat = get_catalog().bare_space(inst.g_types[0], inst.items), inst.aux["sat"]
            at = coeffs(**params)
            cut = [at.get(i, 0) for i in range(1, inst.ambient + 1)]
            assert full.contains(sat) and sat.dim == full.dim - 1, (row, params)
            assert not any(dot(cut, b) for b in sat.basis), (row, params)
            assert any(dot(cut, b) for b in full.basis), (row, params)
            checked += 1
    assert checked == 420


def _alpha_pairs(entry):
    """(stored alpha, value of the central generator pi^vee(zgen) at lam) at
    a T1.6 row's first four admissible parameter sets; the value is
    sum_j lam_j (C^-1)[j][zgen-1], column zgen-1 of C^-1 solving C x = e."""
    pairs = []
    for params in itertools.islice(admissible_params(entry, 12), 4):
        inst = instantiate(entry, params)
        C, z = cartan_matrix(inst.g_types[0]), inst.aux["zgen"] - 1
        inverse, _ = rref([[*row, int(i == z)] for i, row in enumerate(C)], len(C) + 1)
        value = sum(x * row[-1] for x, row in zip(inst.aux["lam"], inverse))
        pairs.append((inst.aux["alpha_value"], value))
    return pairs


@pytest.mark.parametrize("row", [
    "1", "2", "3",
    pytest.param("4", marks=pytest.mark.xfail(
        strict=True, reason="ROADMAP item 12: T1.6:4 stores twice the value, "
                            "that of the gl(2n+1) identity")),
    "5"])
def test_family_alpha_is_the_central_generator_at_lam(row):
    pairs = _alpha_pairs(lookup("T1.6", row))
    assert len(pairs) == (1 if row == "5" else 4)
    assert [stored for stored, _ in pairs] == [value for _, value in pairs]


def test_a_scaled_family_alpha_is_caught(planted_tables):
    planted_tables('alpha="k/n"', 'alpha="2*k/n"', "t16.tbl")
    pairs = _alpha_pairs(lookup("T1.6", "1"))
    assert len(pairs) == 4 and all(stored == 2 * value for stored, value in pairs)


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
            checks = verify_entry(entry, {"l": 4} if entry.variables else {})
        else:
            checks = verify_entry(entry, sample_params(entry)[0])
        assert all(c.passed for c in checks), [str(c) for c in checks if not c.passed]
