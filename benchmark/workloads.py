"""The four workloads: their operations, drawn from a seed, and what each
operation must return.

One operation is one CLI command.  ``ladder`` and ``reject`` draw their
pairs from ``random.Random(seed)``; ``survey`` and ``verify`` have no free
inputs.  The program only ever sees the generated command arguments.
Nothing here imports ``cartanspaces``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import oracles as orc

WORKLOADS = ("ladder", "survey", "verify", "reject")

SURVEY_MAX_RANK = 6
# `cartanspaces verify all` printed this many checks at the commit that
# defined the benchmark; fewer means checks were lost.
VERIFY_MIN_CHECKS = 202
# A pair that ends in an uncaught ZeroDivisionError instead of exit 1; it
# does not depend on the seed and counts as failed until the parser is fixed.
KNOWN_FAULT = "sl(5)/sl(3)+z=[1/0*pi_v(2)]"


@dataclass(frozen=True)
class Op:
    command: str                    # 'compute' | 'survey' | 'verify'
    arg: str | int                  # pair text, max rank, or table
    code: int = 0                   # expected exit code
    expect: orc.Expected | None = None   # rank and complexity, compute only
    kraemer: int | None = None      # rank from the spherical list, if listed
    message: str = ""               # text the refusal must contain
    known_fault: str = ""           # exception name of a named, unmended fault


# --- ladder ----------------------------------------------------------------
# One slot per (family, size).  The size and the row parameter fix the cost;
# the seed picks how each pair is spelled (sizes or rank names, item order,
# the scale of the central generator, an explicit target), the order of the
# operations, and on the rungs below rank 10 the parameter itself, inside
# the row's range.  So the inputs change with the seed and the cost of a
# pass hardly does.

_RANK_FORM = {"sl": lambda n: ("A", n - 1), "sp": lambda n: ("C", n // 2),
              "so": lambda n: ("B" if n % 2 else "D", n // 2)}


def _param(rng: random.Random, lo: int, hi: int, rank_g: int) -> int:
    mid = (lo + hi) // 2
    if rank_g >= 10:
        return mid
    return rng.randint(max(lo, mid - 1), min(hi, mid + 1))


def _algebra(rng: random.Random, base: str, n: int) -> str:
    """'so(41)' or 'B(20)'."""
    if rng.random() < 0.5:
        return f"{base}({n})"
    series, rank = _RANK_FORM[base](n)
    return f"{series}({rank})"


def _item(rng: random.Random, base: str, n: int) -> str:
    """'so(30)' or 'D15'; rank-one and rank-two blocks keep their size form."""
    if n <= 5 or rng.random() < 0.5:
        return f"{base}({n})"
    series, rank = _RANK_FORM[base](n)
    return f"{series}{rank}"


def _items(rng: random.Random, *items: str) -> str:
    items = list(items)
    rng.shuffle(items)
    return "+".join(items)


def _kraemer(text: str) -> int | None:
    p = orc.parse_simple(text)
    return orc.kraemer_rank(p) if p is not None else None


def ladder_ops(seed: int, max_rank: int = 24) -> list[Op]:
    rng = random.Random(seed)
    ops: list[Op] = []

    def add(text: str, expect: orc.Expected, rank_g: int):
        if rank_g <= max_rank:
            ops.append(Op("compute", text, 0, expect, _kraemer(text)))

    for n in (4, 9, 16, 23):                                   # T1.4:1
        k = _param(rng, (n + 3) // 2, n - 1, n - 1)
        add(f"{_algebra(rng, 'sl', n)}/{_item(rng, 'sl', k)}", orc.sl_sl(n, k), n - 1)
    for n in (5, 12, 17):                                      # T1.4:2
        k = _param(rng, (n + 1) // 2, n - 2, n - 1)
        h = _items(rng, _item(rng, "sl", k), _item(rng, "sl", n - k))
        add(f"{_algebra(rng, 'sl', n)}/{h}", orc.sl_slsl(n, k), n - 1)
    for m in (2, 5, 8):                                        # T1.4:3
        add(f"{_algebra(rng, 'sl', 2 * m)}/{_item(rng, 'sp', 2 * m)}",
            orc.sl_sp(m), 2 * m - 1)
    for n in (3, 9, 15):                                       # T1.4:4
        k = _param(rng, (n + 2) // 2, n - 1, n)
        add(f"{_algebra(rng, 'sp', 2 * n)}/{_item(rng, 'sp', 2 * k)}",
            orc.sp_sp(n, k), n)
    for n in (2, 7, 16):                                       # T1.4:5
        k = _param(rng, (n + 1) // 2, n - 1, n)
        small = "sl(2)" if n - k == 1 else _item(rng, "sp", 2 * (n - k))
        h = _items(rng, _item(rng, "sp", 2 * k), small)
        add(f"{_algebra(rng, 'sp', 2 * n)}/{h}", orc.sp_spsp(n, k), n)
    for n in (7, 14, 27, 41):                                  # T1.4:8
        k = _param(rng, (n + 3) // 2, n - 1, n // 2)
        add(f"{_algebra(rng, 'so', n)}/{_item(rng, 'so', k)}", orc.so_so(n, k), n // 2)
    for base, n, dim_x, rank_x in (("sl", 3, 8, 2), ("sp", 10, 55, 5),   # T1.4:25
                                   ("so", 17, 136, 8), ("sl", 12, 143, 11)):
        x = _algebra(rng, base, n)
        where = " in 1,2" if rng.random() < 0.5 else ""
        add(f"{x}+{x}/diag({x}){where}", orc.diag(dim_x, rank_x), 2 * rank_x)
    for n in (4, 11, 16):                                      # T1.6:1
        k = _param(rng, n // 2 + 1, n - 1, n - 1)
        scale = rng.choice(("", "2*", "-1*", "3/2*"))
        add(f"{_algebra(rng, 'sl', n)}/{_item(rng, 'sl', k)}+z=[{scale}pi_v({n - k})]",
            orc.sl_sl_z(n, k), n - 1)
    for m in (2, 4, 5):                                        # T1.6:4
        scale = rng.choice(("", "2*", "-1*", "3/2*"))
        add(f"{_algebra(rng, 'so', 4 * m + 2)}/{_item(rng, 'sl', 2 * m + 1)}"
            f"+z=[{scale}pi_v({2 * m + 1})]", orc.so_sl_z(m), 2 * m + 1)
    for name, rank_g in (("E6/D5", 6), ("E7/e6", 7), ("E8/e7", 8)):  # T1.4:19,22,24
        add(name, orc.exceptional(name), rank_g)
    rng.shuffle(ops)
    return ops


# --- reject ----------------------------------------------------------------
# Seeded pairs outside the tables (exit 2, naming the violated inequality),
# seeded malformed pairs (exit 1 with an offset), and the one named fault.

def _refusal(text: str, covered: bool, row: str, constraint: str) -> Op:
    if covered:
        raise ValueError(f"{text} is covered by the tables; not a refusal")
    return Op("compute", text, 2, message=f"{row} requires '{constraint}'")


def reject_ops(seed: int) -> list[Op]:
    rng = random.Random(seed)
    ops: list[Op] = []
    sizes = [6 + (34 * i) // 9 for i in range(10)]             # 6 .. 40
    for n in sizes:
        n = n + rng.randint(0, 1)
        k = rng.randint(2, n // 2)                             # 2k <= n
        ops.append(_refusal(f"sl({n})/sl({k})", orc.accepts_sl_sl(n, k),
                            "T1.4:1", "2*k>=n+2"))
        half = max(4, n // 2)                                  # sp(2*half)
        k = rng.randint(2, half // 2)                          # 2k <= half
        ops.append(_refusal(f"sp({2 * half})/sp({2 * k})",
                            orc.accepts_sp_sp(half, k), "T1.4:4", "2*k>=n+1"))
        m = max(9, n)
        k = rng.randint(5, (m + 1) // 2)                       # 2k <= m+1
        ops.append(_refusal(f"so({m})/so({k})", orc.accepts_so_so(m, k),
                            "T1.4:8", "2*k>=n+2"))
        b = max(3, n // 2)
        ops.append(_refusal(f"sp({2 * b})+sp({2 * b})/sp({2 * b - 2}) in 1"
                            f"+bridge in 1,2+sp({2 * b - 2}) in 2",
                            orc.accepts_sp_bridge(b, b), "T1.4:26", "m>n"))
    malformed = (
        lambda n, k: f"sl({n})sl({k})",                  # no '/'
        lambda n, k: f"sl({n})/sl({k}",                  # unclosed item
        lambda n, k: f"sl({n})/",                        # empty subalgebra
        lambda n, k: f"sl({n})+xy({k})/sl({k})",         # unknown factor
        lambda n, k: f"sl({n})/sp({2 * k + 1})",         # odd symplectic size
        lambda n, k: f"sl({n})+sl({k})/sl({k}) in 3",    # missing target factor
        lambda n, k: f"sl({n})+/sl({k})",                # empty factor
        lambda n, k: f"sl({n})/sl({k})+z=[pi_v(1)",      # unclosed central part
    )
    for i in range(24):
        n = rng.randint(6, 40)
        k = rng.randint(2, n - 1)
        ops.append(Op("compute", malformed[i % len(malformed)](n, k), 1))
    ops.append(Op("compute", KNOWN_FAULT, 1, known_fault="ZeroDivisionError"))
    rng.shuffle(ops)
    return ops


def ops_for(workload: str, seed: int) -> list[Op]:
    if workload == "ladder":
        return ladder_ops(seed)
    if workload == "reject":
        return reject_ops(seed)
    if workload == "survey":
        return [Op("survey", SURVEY_MAX_RANK)]
    if workload == "verify":
        return [Op("verify", "all")]
    raise ValueError(f"unknown workload {workload!r}; choose one of {', '.join(WORKLOADS)}")
