import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cartanspaces
from cartanspaces import engine
from cartanspaces.catalog import HItem, get_catalog, instantiate, lookup
from cartanspaces.cli import (
    cmd_compute,
    cmd_survey,
    cmd_verify,
    format_pair,
    main,
    parse_pair,
    survey_pairs,
)
from cartanspaces.errors import PairSyntaxError
from cartanspaces.rootsystems import AMBIENT_CEILING, RANK_CEILING, SimpleType, sl, so, sp

GOLDEN = Path(__file__).parent / "golden"

GOLDEN_PAIRS = {
    "sl(6)/sp(6)": "sl6_sp6.json",
    "E6/D5": "e6_d5.json",
    "sp(6)/sl(2)+sl(2)+sl(2)": "sp6_sl2cube.json",
}


def test_parse_simple():
    pair = parse_pair("sl(6)/sp(6)")
    assert pair.factors == (sl(6),)
    assert pair.items == (HItem("sp", 6, (0,)),)


def test_parse_exceptional_names():
    pair = parse_pair("E6/D5")
    assert pair.factors == (SimpleType("E", 6),)
    assert pair.items == (HItem("so", 10, (0,)),)
    pair = parse_pair("F4/B4")
    assert pair.items == (HItem("so", 9, (0,)),)
    pair = parse_pair("so(9)/spin(7)")
    assert pair.items == (HItem("spin", 7, (0,)),)
    pair = parse_pair("so(8)/g2")
    assert pair.items == (HItem("g2", None, (0,)),)


def test_parse_central_part():
    pair = parse_pair("sl(5)/sl(3)+z=[pi_v(2)]")
    assert pair.center is not None and pair.center.dim == 1
    assert pair.center.basis == ((1,),)
    # generator index is validated
    with pytest.raises(PairSyntaxError):
        parse_pair("sl(5)/sl(3)+z=[pi_v(1)]")


def test_parse_multi_factor_and_targets():
    pair = parse_pair("sl(4)+sp(6)/sp(4) in 1+sl(2) in 2+sl(2) in 2+sl(2) in 2")
    assert len(pair.items) == 4
    pair = parse_pair("sp(6)+sl(2)/sp(4) in 1+bridge in 1,2")
    assert pair.items[1] == HItem("bridge", None, (0, 1))
    pair = parse_pair("sl(3)+sl(3)/diag(sl(3))")
    assert pair.items[0].base == "diag"
    # 'in' by type name when unique
    pair = parse_pair("sl(4)+sp(6)/sp(4) in sl(4)")
    assert pair.items[0].targets == (0,)


def test_parse_tablerefs():
    assert parse_pair("sl(6)/T1.4:3(n=3)") == parse_pair("sl(6)/sp(6)")
    assert parse_pair("sl(5)/T1.6:1(n=5,k=3)") == parse_pair("sl(5)/sl(3)")
    assert parse_pair("sp(4)+sp(6)/T1.4:26(n=2,m=3)") == parse_pair(
        "sp(4)+sp(6)/sp(2) in 1+bridge in 1,2+sp(4) in 2")
    assert parse_pair("sl(3)+sl(3)/T1.4:25(s=A,r=2)") == parse_pair(
        "sl(3)+sl(3)/diag(sl(3))")
    # explicit factor targets for a swapped order
    assert parse_pair("sp(6)+sp(4)/T1.4:26(n=2,m=3) in 2,1") == parse_pair(
        "sp(6)+sp(4)/sp(2) in 2+bridge in 2,1+sp(4) in 1")
    with pytest.raises(PairSyntaxError):
        parse_pair("sl(6)/T1.4:3(n=4)")  # needs sl(8)
    with pytest.raises(PairSyntaxError):
        parse_pair("sl(6)/T1.4:3(n=1)")  # out of range
    with pytest.raises(PairSyntaxError):
        parse_pair("sl(6)/T9.9:1(n=3)")


def test_parse_errors_with_offsets():
    with pytest.raises(PairSyntaxError) as err:
        parse_pair("sl(6)/")
    assert err.value.offset == 6
    with pytest.raises(PairSyntaxError):
        parse_pair("sl(6)")
    with pytest.raises(PairSyntaxError):
        parse_pair("sl(6)/sp(4) in 3")
    with pytest.raises(PairSyntaxError):
        parse_pair("qq(6)/sp(4)")


def test_malformed_input_exits_1_with_offset(capsys):
    cases = {
        # a zero denominator in a central coefficient
        "sl(5)/sl(3)+z=[1/0*pi_v(2)]": "zero denominator",
        # a row parameter that is not a number
        "sl(6)/T1.4:3(n=x)": "'n'",
        # a factor above the rank ceiling fails before any root system is built
        f"A({RANK_CEILING + 1})/sl(2)": f"allowed 1..{RANK_CEILING}",
        f"sl({RANK_CEILING + 2})/sl(2)": f"allowed 1..{RANK_CEILING}",
        f"so({2 * RANK_CEILING + 2})/so(9)": f"allowed 3..{RANK_CEILING}",
        "A(1000000)/sl(2)": f"allowed 1..{RANK_CEILING}",
        # item sizes that name no algebra
        "sl(4)/sp(3)": "sp(3) is not an algebra",
        "sl(4)/sl(1)": "sl(1) is not simple",
        "so(7)/so(0)": "so(0) is not available",
        "so(9)/spin(9)": "only spin(7)",
        # a weight ambient above the ceiling, through the center or many factors
        "sl(5)+center(100000000)/sl(3)": f"is above {AMBIENT_CEILING}",
        "+".join(["sl(128)"] * 40) + "/sl(100) in 1": f"is above {AMBIENT_CEILING}",
        # no simple factor and no center, a missing central coordinate, and a
        # table reference placed on a factor of another type
        "center(0)/sl(2)": "empty algebra",
        "sl(5)/sl(3)+z=[z0(1)]": "central coordinate z0(1) does not exist",
        "sl(6)+sl(5)/T1.4:3(n=3) in 2": "T1.4:3 needs A5 at position 1, factor 2 is A4",
    }
    offsets = {"center(0)/sl(2)": 0, "sl(5)/sl(3)+z=[z0(1)]": 15,
               "sl(6)+sl(5)/T1.4:3(n=3) in 2": 12}
    for text, named in cases.items():
        assert cmd_compute(text) == 1, text
        err = capsys.readouterr().err
        assert err.startswith("parse error: ") and named in err, err
        offset = int(err.split("at offset ")[1].split(":")[0])
        assert 0 <= offset <= len(text)
        assert offsets.get(text, offset) == offset, text
        if "ambient" in named:
            assert offset < text.index("/")
        assert "is not defined" not in err


BIG = "9" * 5000  # above Python's 4300-digit limit for int()


@pytest.mark.parametrize("text", [
    f"sl(4)/sl({BIG})",
    f"A({BIG})/sl(2)",
    f"sl(6)/T1.4:1(n={BIG},k=3)",
    f"sl(4)+sl(4)/sl(3) in {BIG}",
    f"sl(5)/sl(3)+z=[{BIG}*pi_v(2)]",
], ids=["item-size", "factor-rank", "row-parameter", "in-target", "coefficient"])
def test_number_too_long_exits_1_with_offset(text, capsys):
    assert cmd_compute(text) == 1
    err = capsys.readouterr().err
    assert err.startswith("parse error: number too long to read (5000 characters) at offset ")


def test_print_parse_identity():
    expressions = [
        "sl(6)/sp(6)",
        "E6/D5",
        "sp(6)/sl(2)+sl(2)+sl(2)",
        "sl(5)/sl(3)+z=[pi_v(2)]",
        "sl(7)/sl(4)+sl(3)+z=[pi_v(3)]",
        "sl(4)+sp(6)/sp(4) in 1+sl(2) in 2+sl(2) in 2+sl(2) in 2",
        "sp(6)+sl(2)/sp(4) in 1+bridge in 1,2",
        "sl(3)+sl(3)/diag(sl(3))",
        "sl(5)+center(1)/sl(3)+z=[z0(1)+pi_v(2)@1]",
    ]
    for text in expressions:
        pair = parse_pair(text)
        assert parse_pair(format_pair(pair)) == pair, text


def test_golden_json(capsys):
    for expr, fname in GOLDEN_PAIRS.items():
        assert cmd_compute(expr, as_json=True) == 0
        out = capsys.readouterr().out
        want = (GOLDEN / fname).read_text()
        assert out == want, expr
        json.loads(out)  # well-formed


def test_exit_codes(capsys):
    assert cmd_compute("sl(6)/sp(6)") == 0
    assert cmd_compute("sl(6)/", ) == 1
    assert cmd_compute("sl(5)/sl(2)") == 2
    capsys.readouterr()


def test_bourbaki_flag(capsys):
    assert cmd_compute("E6/D5", as_json=True, bourbaki=True) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["convention"] == "bourbaki"
    # VO pi_1/pi_5/pi_6 become standard pi_1/pi_6/pi_2: basis rows hit
    # columns 1, 6, 2
    cols = {tuple(row).index("1") for row in payload["space_basis"]}
    assert cols == {0, 5, 1}
    assert cmd_compute("E6/D5", bourbaki=True) == 0
    text = capsys.readouterr().out
    assert "pi_2" in text and "pi_6" in text


def test_verify_all(capsys):
    import time

    t0 = time.perf_counter()
    assert cmd_verify("all") == 0
    elapsed = time.perf_counter() - t0
    out = capsys.readouterr().out
    assert "0 failed" in out
    assert "T3.2" in out and "T4.8" in out
    assert elapsed < 10.0


def test_verify_computes_each_k_once(monkeypatch):
    from cartanspaces import rootsystems

    calls, k_value = [], rootsystems.k_value

    def counted(rs):
        calls.append(rs.stype)
        return k_value(rs)

    monkeypatch.setattr(rootsystems, "k_value", counted)
    rootsystems.build_root_system.cache_clear()
    texts = []
    for _ in range(2):
        out = io.StringIO()
        assert cmd_verify("all", out=out) == 0
        texts.append((out.getvalue(), len(calls)))
    (first, after_first), (second, after_second) = texts
    assert after_first == len(set(calls)) > 0
    assert after_second == after_first
    assert first == second


def test_verify_single_table(capsys):
    assert cmd_verify("T3.2") == 0
    out = capsys.readouterr().out
    # nine series, ranks swept up to 12
    assert out.count("T3.2:") >= 9
    assert cmd_verify("nope") == 1
    capsys.readouterr()


def test_survey_contents():
    rows = survey_pairs(4)
    descs = {format_pair(p): r.complexity for _, p, r in rows}
    assert descs.get("sl(4)/sp(4)") == 0
    rows3 = survey_pairs(3)
    cx1 = [format_pair(p) for _, p, r in rows3 if r.complexity == 1]
    assert "sp(6)/sl(2)+sl(2)+sl(2)" in cx1
    rows1 = survey_pairs(1)
    spherical1 = [format_pair(p) for _, p, r in rows1 if r.complexity == 0]
    assert len(spherical1) <= 3


def _disagreements(max_rank: int) -> list:
    """Survey keys whose answer differs from `compute`'s in any field."""
    return [key for key, pair, result in survey_pairs(max_rank)
            if result != engine.cartan_space(pair)]


def test_survey_answers_agree_with_compute():
    # the survey answers each pair from the row instance that spells it and
    # `compute` searches the tables for the row: space, rank, essential
    # part, complexity and trace must all agree
    assert len(survey_pairs(8)) == 216
    assert _disagreements(8) == []


def test_survey_agreement_check_flags_a_shadowing_row(planted_tables):
    # a copy of T1.4:1 under row=0 sorts first, so `compute` answers the
    # pairs of row 1 from row 0 and names row 0 in the trace
    t14 = (get_catalog().data_dir / "t14.tbl").read_text()
    row1 = next(line for line in t14.splitlines() if "row=1 " in line)
    planted_tables(row1, row1 + "\n" + row1.replace("row=1 ", "row=0 "))
    row1_keys = [key for key, _, _ in survey_pairs(8) if key[:2] == ("T1.4", 1)]
    assert row1_keys and _disagreements(8) == row1_keys


def test_row_result_equals_the_cartan_space_of_its_pair():
    inst = instantiate(lookup("T1.4", 1), {"n": 5, "k": 4})
    assert engine.row_result(inst) == engine.cartan_space(inst.pair)


def test_a_row_that_fails_at_an_admissible_parameter_exits_1(planted_tables, capsys):
    # an extra generator pi(n-6) on T1.4:8: at n=7 it gives a negative
    # complexity, from n=13 on it names a weight the factor lacks; `verify`
    # does not sample those parameters, and the survey must not skip the row
    planted_tables('gens="pi(i) : i=1..n-k"', 'gens="pi(i) : i=1..n-k | pi(n-6)"')
    assert cmd_verify("T1.4", out=io.StringIO()) == 0
    assert cmd_survey(6, "", out=io.StringIO()) == 1
    assert capsys.readouterr().err.startswith("error: T1.4:8 at {")
    assert cmd_compute("so(13)/so(12)", out=io.StringIO()) == 1
    assert capsys.readouterr().err == "error: weight index 7 out of range for factor B6\n"


def test_a_table_fault_met_while_parsing_exits_1(planted_tables, capsys):
    # the central part reads the factor's T1.6 row while the pair is parsed;
    # a weight index past the factor's rank is the table's fault, not a traceback
    planted_tables('sat="pi(i)+pi(n-i) : i=1..n-k |', 'sat="pi(i)+pi(n+3-i) : i=1..n-k |',
                   "t16.tbl")
    assert cmd_compute("sl(7)/sl(4)+z=[pi_v(3)]", out=io.StringIO()) == 1
    assert capsys.readouterr().err == "error: weight index 9 out of range for factor A6\n"


@pytest.mark.parametrize("table, name, old, new, failed", [
    # an embedding that `indexes` has no Dynkin index for
    ("T3.4", "t34.tbl", "g=sp(2*n) h=sp(2*k)", "g=sp(2*n) h=so(2*k)", [
        "[FAIL] T3.4:8 instantiates at {'k': 1, 'n': 2}: so(2) is not available",
        "[FAIL] T3.4:8 runs its checks at {'k': 3, 'n': 4}: "
        "unsupported embedding shape: so(6) inside C4"]),
    # a closed form that names a parameter the row lacks
    ("T3.2", "t32.tbl", 'kform="48"', 'kform="48/(l-l)"', [
        "[FAIL] T3.2:E6 runs its checks at {}: unbound parameter 'l' in expression '48/(l-l)'"]),
])
def test_a_check_that_raises_is_one_failed_check(planted_tables, table, name, old, new, failed):
    tables = planted_tables(old, new, name)
    src = str(Path(cartanspaces.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-m", "cartanspaces.cli", "verify", table],
                          capture_output=True, text=True, timeout=60,
                          env=dict(os.environ, PYTHONPATH=src, CARTAN_DATA_DIR=str(tables)))
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr, proc.stderr
    assert [line for line in proc.stdout.splitlines() if line.startswith("[FAIL]")] == failed


def test_survey_command(capsys):
    assert cmd_survey(3, "complexity=1") == 0
    out = capsys.readouterr().out
    assert "sp(6)/sl(2)+sl(2)+sl(2)" in out
    assert cmd_survey(2, "spherical") == 0
    capsys.readouterr()
    # a filter that is not a number or a name is an input error
    for filt in ("complexity=x", "complexity=", "flat"):
        assert cmd_survey(3, filt) == 1
        assert capsys.readouterr().err == f"unknown filter {filt!r}\n"
    # a negative rank bound lists nothing
    assert cmd_survey(-3, "") == 0
    assert capsys.readouterr().out == "0 pairs listed\n"
    # above rank 12 the survey refuses, an input error
    assert cmd_survey(13, "") == 1
    assert capsys.readouterr() == ("", "error: survey is limited to rank 12\n")


def test_main_dispatch(capsys):
    assert main(["compute", "sl(6)/sp(6)"]) == 0
    assert main(["verify", "T3.4"]) == 0
    assert main(["survey", "--max-rank", "2", "--filter", "spherical"]) == 0
    capsys.readouterr()
    # usage errors exit 1 like every other input error; exit 2 means a refusal
    for argv in (["survey", "--max-rank", "x"], ["compute"], [],
                 ["survey", "--max-rank", "3", "--filter", "complexity=x"]):
        assert main(argv) == 1, argv
    assert main(["survey", "--max-rank", "-3"]) == 0
    assert main(["--help"]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("argv", [["verify", "all"], ["compute", "sl(6)/sp(6)"]])
def test_closed_stdout_exits_1_without_traceback(argv):
    # the reader of standard output is gone before the command prints
    src = str(Path(cartanspaces.__file__).resolve().parents[1])
    with subprocess.Popen(
            [sys.executable, "-c",
             "import sys; from cartanspaces.cli import main; sys.exit(main())", *argv],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env=dict(os.environ, PYTHONPATH=src)) as proc:
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
    assert proc.returncode == 1
    assert b"Traceback" not in err and b"BrokenPipe" not in err, err


def test_survey_golden_determinism(capsys):
    # enumeration order is part of the contract: lexicographic in
    # (table, row, parameters)
    assert cmd_survey(4, "spherical") == 0
    out = capsys.readouterr().out
    want = (GOLDEN / "survey_rank4_spherical.txt").read_text()
    assert out == want


@pytest.mark.parametrize("argv, golden", [
    (["survey", "--max-rank", "12"], "survey_rank12.txt"),
    (["verify", "all"], "verify_all.txt"),
])
def test_command_golden_output(argv, golden):
    # the whole standard output, byte for byte, and a clean exit
    src = str(Path(cartanspaces.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-m", "cartanspaces.cli", *argv],
                          capture_output=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=src))
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert proc.stdout == (GOLDEN / golden).read_bytes()
