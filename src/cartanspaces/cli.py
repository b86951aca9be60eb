"""Command-line front end.

Commands:
    compute <pair-expr> [--json] [--bourbaki]
    verify  <table|all>
    survey  --max-rank N --filter <spherical|complexity=K>

Pair expressions follow the grammar in `cartanspaces.pairs`.  Exit codes:
0 success, 1 parse, input or usage error, 2 outside the encoded tables.
"""

from __future__ import annotations

import json
import os
import sys

from . import catalog as cat
from . import engine
from .catalog import ReductivePair, get_catalog, instantiate, verify_entry
from .errors import (
    CartanError, ConstraintError, OutsideCatalogError, PairSyntaxError, TableFormatError)
from .pairs import format_pair, parse_pair
from .rootsystems import vo_to_bourbaki

# ---------------------------------------------------------------------------
# printing
# ---------------------------------------------------------------------------

def _layout(pair: ReductivePair, bourbaki: bool) -> list[tuple[str, int]]:
    """(label, output column) of each weight coordinate, in coordinate order."""
    layout = []
    for f, t in enumerate(pair.factors):
        start = len(layout)
        for j in (vo_to_bourbaki(t) if bourbaki else range(1, t.rank + 1)):
            layout.append(("pi" + "'" * f + f"_{j}", start + j - 1))
    start = len(layout)
    return layout + [(f"z_{j + 1}", start + j) for j in range(pair.center_dim)]


def format_vector(pair: ReductivePair, v, bourbaki: bool = False) -> str:
    terms = []
    for (name, _), x in zip(_layout(pair, bourbaki), v):
        if x == 0:
            continue
        if x == 1:
            terms.append(name)
        elif x == -1:
            terms.append(f"-{name}")
        else:
            terms.append(f"{x}*{name}")
    return " + ".join(terms).replace("+ -", "- ") if terms else "0"


def _basis_columns(pair: ReductivePair, basis, bourbaki: bool) -> list[list[str]]:
    """Rows as string fractions, columns permuted per output convention."""
    layout = _layout(pair, bourbaki)
    out = []
    for row in basis:
        new = [""] * len(row)
        for (_, col), x in zip(layout, row):
            new[col] = str(x)
        out.append(new)
    return out


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _load_tables() -> cat.Catalog | None:
    """The catalog, loaded before any input is read so that a table at fault
    is reported as such; None after printing the load error."""
    try:
        return get_catalog()
    except CartanError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None


def cmd_compute(expr: str, as_json: bool = False, bourbaki: bool = False, out=None) -> int:
    out = out if out is not None else sys.stdout
    if _load_tables() is None:
        return 1
    try:
        pair = parse_pair(expr)
    except PairSyntaxError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 1
    except CartanError as exc:  # a table fault met while reading the central part
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        result = engine.cartan_space(pair)
    except OutsideCatalogError as exc:
        print(f"outside catalog: {exc}", file=sys.stderr)
        return 2
    except CartanError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if as_json:
        payload = {
            "convention": "bourbaki" if bourbaki else "VO",
            "space_basis": _basis_columns(pair, result.space.basis, bourbaki),
            "rank": result.rank,
            "complexity": result.complexity,
            "essential_part": result.essential.describe(),
            "trace": list(result.trace),
        }
        print(json.dumps(payload, sort_keys=True, indent=2), file=out)
    else:
        print(f"pair: {format_pair(pair)}", file=out)
        print(f"convention: {'bourbaki' if bourbaki else 'VO'}", file=out)
        gens = [format_vector(pair, b, bourbaki) for b in result.space.basis]
        print("space basis: " + ("; ".join(gens) if gens else "(zero)"), file=out)
        print(f"rank: {result.rank}", file=out)
        print(f"essential part: {result.essential.describe()}", file=out)
        print(f"complexity: {result.complexity}", file=out)
        for t in result.trace:
            print(f"trace: {t}", file=out)
    return 0


def _row_checks(entry: cat.CatalogEntry) -> list[cat.Check]:
    """The row's checks at each of its sample parameters; a row that admits
    none is one failed check."""
    try:
        samples = cat.sample_params(entry)
    except ConstraintError as exc:
        return [cat.Check(f"{entry.row_id} admissible parameters", False, str(exc))]
    return [check for params in samples for check in verify_entry(entry, params)]


def cmd_verify(target: str, out=None) -> int:
    out = out if out is not None else sys.stdout
    tables = list(cat.TABLE_FILES)
    if target != "all":
        if target not in tables:
            print(f"unknown table {target!r}; choose one of {', '.join(tables)} or 'all'",
                  file=sys.stderr)
            return 1
        tables = [target]
    catalog = _load_tables()
    if catalog is None:
        return 1
    checks: list[cat.Check] = []
    for table in tables:
        for entry in catalog.rows(table):
            for check in _row_checks(entry):
                print(str(check), file=out)
                checks.append(check)
    failed = [c for c in checks if not c.passed]
    print(f"{len(checks)} checks, {len(failed)} failed", file=out)
    return 1 if failed else 0


def survey_pairs(max_rank: int):
    """All catalog-instantiable pairs with rk(g) <= max_rank, in table order,
    each answered from its row instance (`engine.row_result`); a test and the
    benchmark's deep survey check confirm that `compute` answers the same.  A
    row that fails at an admissible parameter is a table fault."""
    if max_rank > 12:
        raise ConstraintError("survey is limited to rank 12")
    catalog = get_catalog()
    seen = []
    for entry in catalog.rows("T1.4") + catalog.rows("T1.6"):
        for params in cat.admissible_params(entry, max_rank):
            try:
                inst = instantiate(entry, params)
                result = engine.row_result(inst)
            except CartanError as exc:  # naming the row once, if the error names it too
                at = f"{entry.row_id} at {params}: "
                raise TableFormatError(at + str(exc).removeprefix(at)) from exc
            key = (entry.table, int(entry.row), tuple(sorted(params.items())))
            seen.append((key, inst.pair, result))
    seen.sort(key=lambda x: x[0])
    return seen


def cmd_survey(max_rank: int, filt: str, out=None) -> int:
    out = out if out is not None else sys.stdout
    try:
        want = (int(filt[len("complexity="):]) if filt.startswith("complexity=")
                else {"": None, "spherical": 0}[filt])
    except (KeyError, ValueError):
        print(f"unknown filter {filt!r}", file=sys.stderr)
        return 1
    try:
        rows = survey_pairs(max_rank)
    except CartanError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    groups: dict[int, list[str]] = {}
    for (table, row, params), pair, result in rows:
        if want is not None and result.complexity != want:
            continue
        desc = format_pair(pair)
        p = ",".join(f"{k}={v}" for k, v in params)
        groups.setdefault(result.complexity, []).append(
            f"{desc}  [rank {result.rank}; {table}:{row}" + (f"({p})" if p else "") + "]")
    for c in sorted(groups):
        print(f"complexity {c}:", file=out)
        for line in groups[c]:
            print(f"  {line}", file=out)
    total = sum(len(v) for v in groups.values())
    print(f"{total} pairs listed", file=out)
    return 0


def main(argv=None) -> int:
    import argparse  # only the command line needs it, not callers of the commands

    parser = argparse.ArgumentParser(
        prog="cartanspaces",
        description="Cartan spaces, rank and complexity of reductive subalgebra pairs")
    sub = parser.add_subparsers(dest="command", required=True)

    p_compute = sub.add_parser("compute", help="compute the space for one pair")
    p_compute.add_argument("expr")
    p_compute.add_argument("--json", action="store_true")
    p_compute.add_argument("--bourbaki", action="store_true")

    p_verify = sub.add_parser("verify", help="run the table self-verification")
    p_verify.add_argument("table", nargs="?", default="all")

    p_survey = sub.add_parser("survey", help="enumerate catalog pairs by complexity")
    p_survey.add_argument("--max-rank", type=int, required=True)
    p_survey.add_argument("--filter", default="", dest="filt",
                          metavar="spherical|complexity=K")

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # a usage error is an input error; --help exits 0
        return 1 if exc.code else 0
    try:
        if args.command == "compute":
            code = cmd_compute(args.expr, args.json, args.bourbaki)
        elif args.command == "verify":
            code = cmd_verify(args.table)
        else:
            code = cmd_survey(args.max_rank, args.filt)
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
    except BrokenPipeError:
        # the reader is gone: send what is still buffered to devnull, so the
        # final flush at exit fails no more, and exit 1 as Python does on EPIPE
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
