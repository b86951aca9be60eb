"""Quick tests of the benchmark's own parts: the references, the input
generator and the tracer.  They run in a few seconds, because the
repository's test command collects this file too."""

import io
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)
if HERE not in sys.path:
    sys.path.insert(0, HERE)

import checks  # noqa: E402
import oracles as orc  # noqa: E402
import workloads  # noqa: E402
from tracer import LAYERS, REPORTED, Tracer  # noqa: E402


def test_closed_forms_match_known_complexities():
    assert orc.sl_sl(9, 8) == orc.Expected(2, 0)          # SL(n)/SL(n-1) spherical
    assert orc.sl_slsl(4, 2).complexity == 1              # SL(4)/SL(2)xSL(2)
    assert orc.sp_sp(5, 4) == orc.Expected(2, 1)          # Sp(2n)/Sp(2n-2)
    assert orc.so_so(9, 8) == orc.Expected(1, 0)          # SO(n)/SO(n-1)
    assert orc.so_so(9, 7).complexity == 1                # SO(n)/SO(n-2)
    assert orc.so_so(40, 21).complexity == 172            # D fork: one node left
    assert orc.sl_sp(3) == orc.Expected(2, 0)
    assert orc.exceptional("E6/D5") == orc.Expected(3, 0)
    assert orc.exceptional("E7/e6").complexity == 1


def test_spherical_list_agrees_with_closed_forms():
    """Complexity 0 from the closed forms exactly on the listed pairs."""
    cases = []
    for n in range(4, 30):
        for k in range((n + 3) // 2, n):
            cases.append((f"sl({n})/sl({k})", orc.sl_sl(n, k)))
            cases.append((f"sl({n})/sl({k})+z=[pi_v({n - k})]", orc.sl_sl_z(n, k)))
        for k in range((n + 1) // 2, n - 1):
            cases.append((f"sl({n})/sl({k})+sl({n - k})", orc.sl_slsl(n, k)))
        for k in range((n + 2) // 2, n):
            cases.append((f"sp({2 * n})/sp({2 * k})", orc.sp_sp(n, k)))
        for k in range((n + 1) // 2, n):
            cases.append((f"sp({2 * n})/sp({2 * k})+sp({2 * (n - k)})", orc.sp_spsp(n, k)))
        if n >= 7:
            for k in range((n + 3) // 2, n):
                cases.append((f"so({n})/so({k})", orc.so_so(n, k)))
    for m in range(2, 12):
        cases.append((f"sl({2 * m})/sp({2 * m})", orc.sl_sp(m)))
        cases.append((f"so({4 * m + 2})/sl({2 * m + 1})+z=[pi_v(1)]", orc.so_sl_z(m)))
    for text, exp in cases:
        known = orc.kraemer_rank(orc.parse_simple(text))
        assert (exp.complexity == 0) == (known is not None), text
        assert known is None or known == exp.rank, text
        assert exp.complexity >= 0, text


def test_inputs_depend_only_on_the_seed():
    for name in ("ladder", "reject"):
        a, b = workloads.ops_for(name, 3), workloads.ops_for(name, 3)
        assert a == b
        assert a != workloads.ops_for(name, 4)
        assert len(a) == len(workloads.ops_for(name, 4))
    faults = [op for op in workloads.reject_ops(7) if op.known_fault]
    assert [op.arg for op in faults] == [workloads.KNOWN_FAULT]


def test_rank_names_parse_like_sizes():
    assert orc.parse_simple("B(20)/D15") == orc.parse_simple("so(41)/so(30)")
    assert orc.parse_simple("C(2)/sl(2)+sp(2)") == orc.parse_simple("sp(4)/sp(2)+sp(2)")
    assert checks.rank_g("sp(4)+sl(2)") == 3


def _pass(cli, ops):
    out = []
    for op in ops:
        buf, err = io.StringIO(), io.StringIO()
        sys_err, sys.stderr = sys.stderr, err
        try:
            code = cli.cmd_compute(op.arg, as_json=True, out=buf)
        except ZeroDivisionError as exc:
            code = None
            err.write(f"{type(exc).__name__}: {exc}")
        finally:
            sys.stderr = sys_err
        out.append((code, buf.getvalue(), err.getvalue()))
    return out


def test_tracer_counts_match_the_pass():
    import cartanspaces.cli as cli
    import cartanspaces.engine as engine
    import cartanspaces.ratlinalg as ratlinalg
    import cartanspaces.rootsystems as rootsystems

    originals = (engine.rref, engine.build_root_system, cli.instantiate, ratlinalg.rref)
    ops = workloads.ladder_ops(11, max_rank=8) + workloads.reject_ops(11)[:12]
    tracer = Tracer()
    tracer.install()
    try:
        # every name the package holds a traced function by is rebound
        assert engine.rref is ratlinalg.rref is rootsystems.rref
        assert engine.rref is not originals[0]
        assert cli.instantiate is not originals[2]
        held = tracer.wrapped_names()
        assert ("cartanspaces.engine", "build_root_system") in held
        assert ("cartanspaces", "cartan_space") in held
        tracer.start()
        outcomes = _pass(cli, ops)
        tracer.stop()
        metrics = tracer.metrics()
    finally:
        tracer.uninstall()
    assert (engine.rref, engine.build_root_system, cli.instantiate, ratlinalg.rref) == originals
    # the ladder pairs are all accepted; a refusal reaches cartan_space
    # (exit 2) unless the parser stops it first (exit 1)
    assert all(code == 0 for code, _, _ in outcomes[:-12])
    reached = sum(code in (0, 2) for code, _, _ in outcomes)
    assert metrics["engine.cartan_space.calls"] == reached
    assert metrics["cli.parse_pair.calls"] == len(ops)
    assert set(metrics) == {f"{q}.{k}" for q, kinds in REPORTED.items() for k in kinds}
    assert {q.split(".")[0] for q in REPORTED} == set(LAYERS)
    verdicts = checks.check_pass(cli, ops, outcomes)
    assert all(v in ("ok", "fault") for v in verdicts), verdicts


def test_survey_check_accepts_a_small_survey():
    import cartanspaces.cli as cli

    buf = io.StringIO()
    assert cli.cmd_survey(3, "", out=buf) == 0
    assert checks.check_pass(cli, [workloads.Op("survey", 3)], [(0, buf.getvalue(), "")],
                             deep=True) == ["ok"]
