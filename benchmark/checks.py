"""Verdicts on what one pass printed.

Each operation gets "ok", "fault" (the named, unmended fault happened
again) or "wrong: <reason>".  Expected answers come from `oracles` and
`workloads`; the survey is also checked against properties the method
must have, and with `deep` against `compute` on every listed pair.
"""

from __future__ import annotations

import io
import json
import re

import oracles as orc
from workloads import SURVEY_MAX_RANK, VERIFY_MIN_CHECKS, Op

_OFFSET = re.compile(r"at offset (\d+)")
_LISTED = re.compile(r"  (.+?)  \[rank (\d+); T\d\.\d:\d+(?:\([^)]*\))?\]$")


def check_pass(cli, ops: list[Op], outcomes, deep: bool = False) -> list[str]:
    return [_verdict(cli, op, code, out, err, deep)
            for op, (code, out, err) in zip(ops, outcomes)]


def _verdict(cli, op: Op, code, out: str, err: str, deep: bool) -> str:
    if code is None:
        name = err.split(":", 1)[0]
        if op.known_fault and name == op.known_fault:
            return "fault"
        return f"wrong: exception escaped: {err[:200]}"
    if code != op.code:
        return f"wrong: exit {code}, expected {op.code}: {err.strip()[:200]}"
    if op.command == "verify":
        return _verify(out)
    if op.command == "survey":
        return _survey(cli, out, deep)
    if op.code == 2:
        return "ok" if op.message in err else f"wrong: refusal does not name {op.message!r}"
    if op.code == 1:
        m = _OFFSET.search(err)
        if not m or int(m.group(1)) > len(op.arg):
            return f"wrong: no offset inside the input in {err.strip()!r}"
        return "ok"
    got = _json(out)
    if got is None:
        return f"wrong: not the JSON answer: {out[:200]!r}"
    if (got["rank"], got["complexity"]) != (op.expect.rank, op.expect.complexity):
        return (f"wrong: rank {got['rank']} complexity {got['complexity']}, closed form "
                f"gives {op.expect.rank} and {op.expect.complexity}")
    if op.kraemer is not None and (got["complexity"], got["rank"]) != (0, op.kraemer):
        return f"wrong: spherical list gives complexity 0 and rank {op.kraemer}"
    return "ok"


def _json(text: str) -> dict | None:
    try:
        got = json.loads(text)
    except ValueError:
        return None
    return got if isinstance(got, dict) and {"rank", "complexity"} <= set(got) else None


def _verify(out: str) -> str:
    lines = out.splitlines()
    m = re.fullmatch(r"(\d+) checks, 0 failed", lines[-1] if lines else "")
    if not m:
        return f"wrong: last line {lines[-1:]!r}"
    if int(m.group(1)) < VERIFY_MIN_CHECKS:
        return f"wrong: {m.group(1)} checks, fewer than {VERIFY_MIN_CHECKS}"
    if any(line.startswith("[FAIL]") for line in lines):
        return "wrong: a check failed"
    return "ok"


_FACTOR_RANK = re.compile(r"(sl|so|sp)\((\d+)\)|([EFG])(\d)")


def rank_g(gpart: str) -> int:
    """Rank of the ambient algebra from its text, e.g. 'sp(4)+sl(2)' -> 3."""
    total = 0
    for m in _FACTOR_RANK.finditer(gpart):
        if m.group(1):
            n = int(m.group(2))
            total += {"sl": n - 1, "so": n // 2, "sp": n // 2}[m.group(1)]
        else:
            total += int(m.group(4))
    return total


def _survey(cli, out: str, deep: bool) -> str:
    lines = out.splitlines()
    listed = []
    complexity = None
    for line in lines[:-1]:
        if line.startswith("complexity "):
            complexity = int(line.split()[1].rstrip(":"))
            continue
        m = _LISTED.match(line)
        if not m or complexity is None:
            return f"wrong: unreadable line {line!r}"
        listed.append((m.group(1), int(m.group(2)), complexity))
    if lines[-1:] != [f"{len(listed)} pairs listed"]:
        return f"wrong: count line {lines[-1:]!r} for {len(listed)} pairs"
    if not listed:
        return "wrong: empty survey"
    for text, rank, c in listed:
        rk = rank_g(text.split("/", 1)[0])
        if c < 0 or rank > rk or rk > SURVEY_MAX_RANK:
            return f"wrong: {text} has rank {rank}, complexity {c}, rk g {rk}"
        try:
            pair = cli.parse_pair(text)
            same = cli.format_pair(pair) == text   # so parse(format(p)) == p too
        except cli.CartanError as exc:
            return f"wrong: the listed pair {text} does not parse: {exc}"
        if not same:
            return f"wrong: {text} does not survive parse/format"
        simple = orc.parse_simple(text)
        if simple is not None:
            known = 0 if orc.is_trivial(simple) else orc.kraemer_rank(simple)
            if (c == 0) != (known is not None) or (known is not None and known != rank):
                return f"wrong: {text} (rank {rank}, complexity {c}) against the spherical list"
        if deep:
            buf = io.StringIO()
            if cli.cmd_compute(text, as_json=True, out=buf) != 0:
                return f"wrong: compute refuses the listed pair {text}"
            got = _json(buf.getvalue())
            if got is None or (got["rank"], got["complexity"]) != (rank, c):
                return f"wrong: compute prints {buf.getvalue()[:200]!r} for {text}"
    return "ok"
