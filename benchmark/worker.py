"""One fresh process of a benchmark run.

    python3 benchmark/worker.py '{"workload": "ladder", "seed": 1, "mode": "timed",
                                  "budget_s": 6.0, "deep": true}'

Modes:
  setup   import the package and load the catalog, nothing else;
  timed   set-up, one cold pass, then warm passes until `budget_s` seconds
          of wall time are used (at least one);
  traced  as `timed` with exactly one warm pass, with every layer wrapped
          by `tracer.Tracer`.

Prints one JSON object as its last line.  The passes call the CLI's
in-process commands and keep what they print; all checks run after the
timed passes.

Times are CPU seconds of this process and of any child it waited for.
The work is single-threaded and CPU-bound, so on an idle machine this is
the wall time; on a shared one it leaves out the time the process spent
descheduled, which is what made wall-clock passes spread.
"""

import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def clock() -> float:
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def _setup(config):
    """Import the package and load the catalog; returns (cli, seconds, tracer)."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    start = clock()
    import cartanspaces.cli as cli
    tracer = None
    if config["mode"] == "traced":
        sys.path.insert(0, HERE)
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
        tracer.start()
    cli.get_catalog()
    return cli, clock() - start, tracer


def main(config) -> dict:
    cli, setup_s, tracer = _setup(config)
    if config["mode"] == "setup":
        return {"setup_s": setup_s}

    import contextlib
    import hashlib
    import io

    sys.path.insert(0, HERE)
    import checks
    from workloads import ops_for

    ops = ops_for(config["workload"], config["seed"])
    commands = {
        "compute": lambda op, out: cli.cmd_compute(op.arg, as_json=True, out=out),
        "survey": lambda op, out: cli.cmd_survey(op.arg, "", out=out),
        "verify": lambda op, out: cli.cmd_verify(op.arg, out=out),
    }

    def one_pass():
        outcomes = []
        start = clock()
        for op in ops:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stderr(err):
                try:
                    code = commands[op.command](op, out)
                except Exception as exc:  # an escape is an outcome to record
                    code = None
                    err.write(f"{type(exc).__name__}: {exc}")
            outcomes.append((code, out.getvalue(), err.getvalue()))
        return clock() - start, outcomes

    begun = time.monotonic()
    cold_s, cold = one_pass()
    warm_s, warm = [], []
    while True:
        lap = time.monotonic()
        seconds, outcomes = one_pass()
        warm_s.append(seconds)
        warm.append(outcomes)
        # the budget is wall time: it bounds how long the run lasts
        now = time.monotonic()
        elapsed, last = now - begun, now - lap
        if config["mode"] == "traced" or elapsed + last > config["budget_s"]:
            break
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    layers = functions = None
    if tracer is not None:
        tracer.stop()
        layers = tracer.metrics()
        functions = {name: {"calls": st.calls, "self_ms": st.self_ns / 1e6}
                     for name, st in tracer.stats.items()}

    verdicts = checks.check_pass(cli, ops, cold, deep=config["deep"])
    failed = sum(v != "ok" for v in verdicts)
    problems = [f"{op.arg}: {v}" for op, v in zip(ops, verdicts) if v.startswith("wrong")]
    for outcomes in warm:
        if outcomes != cold:
            problems.append("a warm pass printed something other than the cold pass")
            again = checks.check_pass(cli, ops, outcomes, deep=False)
            problems += [f"{op.arg}: {v}" for op, v in zip(ops, again) if v.startswith("wrong")]
            failed += sum(v != "ok" for v in again)
        else:
            failed += sum(v != "ok" for v in verdicts)
    return {
        "setup_s": setup_s,
        "cold_s": cold_s,
        "warm_s": warm_s,
        "rss_mb": rss_mb,
        "attempted": len(ops) * (1 + len(warm)),
        "failed": failed,
        "problems": problems[:10],
        "digest": hashlib.sha256(repr(cold).encode()).hexdigest(),
        "layers": layers,
        "functions": functions,
    }


if __name__ == "__main__":
    import json

    print(json.dumps(main(json.loads(sys.argv[1]))))
