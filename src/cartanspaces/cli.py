"""Command-line front end.

Commands:
    compute <pair-expr> [--json] [--bourbaki]
    verify  <table|all>
    survey  --max-rank N --filter <spherical|complexity=K>

Pair expressions:
    pair    := alg "/" sub
    alg     := factor ("+" factor)* ["+" "center(" INT ")"]
    factor  := sl(N) | so(N) | sp(N) | G2 | F4 | E6 | E7 | E8 | A(R) | ...
    sub     := item ("+" item)* ["+" "z=[" zrows "]"]
    item    := tableref | named
    tableref:= T<table>:<row>(name=value,...)          e.g.  T1.4:3(n=3)
    named   := name ["in" (INT | factor)]              e.g.  sp(6) in sl(6)
               | diag(factor) ["in" INT "," INT]
               | bridge ["in" INT "," INT]
    zrows   := zrow (";" zrow)*;  zrow := zterm ("+" zterm)*
    zterm   := [RATIONAL "*"] ( pi_v(I) ["@" ITEM] | z0(J) )

`pi_v(I)` is the distinguished central generator of a family item (the
index must match the item's stored generator); `z0(J)` is the J-th central
coordinate of the ambient algebra.  Exit codes: 0 success, 1 parse or
input error, 2 outside the encoded tables.
"""

from __future__ import annotations

import json
import re
import sys
from fractions import Fraction

from . import catalog as cat
from . import engine
from .catalog import HItem, ReductivePair, get_catalog, instantiate, verify_entry
from .errors import (
    CartanError,
    ConstraintError,
    OutsideCatalogError,
    PairSyntaxError,
)
from .ratlinalg import RationalSubspace, span
from .rootsystems import SimpleType, sl, so, sp, vo_to_bourbaki

def _err(text: str, pos: int, message: str):
    raise PairSyntaxError(f"{message} at offset {pos}: {text[pos:pos + 25]!r}", pos)


def _number(text: str, pos: int, digits: str, kind=int):
    """Every integer and coefficient of the grammar is read here, so that a
    zero denominator or a number too long to convert is an input error."""
    try:
        return kind(digits)
    except ZeroDivisionError:
        _err(text, pos, f"zero denominator in coefficient {digits!r}")
    except ValueError:
        _err(text, pos, f"number too long to read ({len(digits)} characters)")


def _parse_factor(token: str, text: str, pos: int) -> SimpleType:
    token = token.strip()
    m = (re.fullmatch(r"(sl|so|sp)\((\d+)\)", token) or re.fullmatch(r"([ABCDEFG])\((\d+)\)", token)
         or re.fullmatch(r"([EFG])(\d)", token))
    if not m:
        _err(text, pos, f"bad algebra factor {token!r}")
    name, size = m.group(1), _number(text, pos, m.group(2))
    try:
        if name in ("sl", "so", "sp"):
            return {"sl": sl, "so": so, "sp": sp}[name](size)
        return SimpleType(name, size)
    except ConstraintError as exc:
        _err(text, pos, str(exc))


_ITEM_NAMES = {"g2": "g2", "f4": "f4", "e6": "e6", "e7": "e7", "sl2long": "sl2long"}


def _named_item_base(token: str, text: str, pos: int) -> tuple[str, int | None] | None:
    token = token.strip()
    low = token.lower()
    if low in _ITEM_NAMES:
        return (_ITEM_NAMES[low], None)
    m = re.fullmatch(r"spin\((\d+)\)", low)
    if m:
        return ("spin", _number(text, pos, m.group(1)))
    m = re.fullmatch(r"(sl|so|sp)\((\d+)\)", low)
    if m:
        return (m.group(1), _number(text, pos, m.group(2)))
    m = re.fullmatch(r"([ABCD])(\d+)", token) or re.fullmatch(r"([ABCD])\((\d+)\)", token)
    if m:
        s, r = m.group(1), _number(text, pos, m.group(2))
        return {"A": ("sl", r + 1), "B": ("so", 2 * r + 1),
                "C": ("sp", 2 * r), "D": ("so", 2 * r)}[s]
    return None


class _PairParser:
    def __init__(self, text: str):
        self.text = text

    def parse(self) -> ReductivePair:
        text = self.text
        slash = text.find("/")
        if slash < 0:
            _err(text, len(text), "missing '/' between algebra and subalgebra")
        gpart, hpart = text[:slash], text[slash + 1:]
        factors, center_dim = self._parse_alg(gpart)
        if not hpart.strip():
            _err(text, slash + 1, "empty subalgebra part")
        items, zrows_text = self._split_sub(hpart, slash + 1)
        hitems = [it for tok, pos in items for it in self._parse_items(tok, pos, factors)]
        pair = ReductivePair(tuple(factors), center_dim, tuple(hitems), None)
        if zrows_text is not None:
            ztext, zpos = zrows_text
            center = self._parse_zrows(ztext, zpos, pair)
            pair = ReductivePair(tuple(factors), center_dim, tuple(hitems), center)
        return pair

    def _parse_alg(self, gpart: str) -> tuple[list[SimpleType], int]:
        factors: list[SimpleType] = []
        center = 0
        pos = 0
        for piece in cat.split_top(gpart, "+"):
            token = piece.strip()
            at = self.text.find(token, pos) if token else pos
            m = re.fullmatch(r"center\((\d+)\)", token)
            if m:
                center += _number(self.text, at, m.group(1))
            elif token:
                factors.append(_parse_factor(token, self.text, at))
            else:
                _err(self.text, at, "empty algebra factor")
            pos = at + len(token)
        if not factors and center == 0:
            _err(self.text, 0, "empty algebra")
        return factors, center

    def _split_sub(self, hpart: str, base: int):
        items: list[tuple[str, int]] = []
        ztext = None
        pos = 0
        for piece in cat.split_top(hpart, "+"):
            token = piece.strip()
            at = base + (hpart.find(token, pos) if token else pos)
            if not token:
                _err(self.text, at, "empty subalgebra item")
            if token.startswith("z="):
                body = token[2:].strip()
                if not (body.startswith("[") and body.endswith("]")):
                    _err(self.text, at, "central part must be z=[...]")
                ztext = (body[1:-1], at + 3)
            else:
                items.append((token, at))
            pos = (hpart.find(token, pos) if token else pos) + len(token)
        return items, ztext

    def _parse_items(self, token: str, pos: int, factors: list[SimpleType]) -> list[HItem]:
        m = re.fullmatch(r"(T\d\.\d):(\w+)\s*(?:\((.*)\))?(?:\s+in\s+([\d,\s]+))?", token)
        if m:
            return self._parse_tableref(m, pos, factors)
        return [self._parse_item(token, pos, factors)]

    def _parse_tableref(self, m, pos: int, factors: list[SimpleType]) -> list[HItem]:
        table, row, argtext, target_sel = m.group(1), m.group(2), m.group(3), m.group(4)
        if table not in ("T1.4", "T1.6"):
            _err(self.text, pos, f"table {table} has no subalgebra rows")
        try:
            entry = cat.lookup(table, row)
        except CartanError as exc:
            _err(self.text, pos, str(exc))
        params: dict = {}
        for piece in (argtext or "").split(","):
            piece = piece.strip()
            if not piece:
                continue
            pm = re.fullmatch(r"(\w+)\s*=\s*(\w+)", piece)
            if not pm:
                _err(self.text, pos, f"bad row parameter {piece!r}")
            name, value = pm.groups()
            params[name] = _number(self.text, pos, value) if value.isdigit() else value
        try:
            inst = instantiate(entry, params)
        except CartanError as exc:
            _err(self.text, pos, str(exc))
        if target_sel is not None:
            targets = [_number(self.text, pos, x.strip()) - 1 for x in target_sel.split(",")]
        else:
            targets = self._match_row_factors(inst.g_types, factors, pos)
        if len(targets) != len(inst.g_types):
            _err(self.text, pos, f"{entry.row_id} spans {len(inst.g_types)} factors, "
                                 f"got {len(targets)} targets")
        for p, t in enumerate(targets):
            if not (0 <= t < len(factors)):
                _err(self.text, pos, f"factor {t + 1} does not exist")
            if factors[t] != inst.g_types[p]:
                _err(self.text, pos,
                     f"{entry.row_id} needs {inst.g_types[p]} at position {p + 1}, "
                     f"factor {t + 1} is {factors[t]}")
        return [HItem(it.base, it.size, tuple(targets[p] for p in it.targets), it.diag_type)
                for it in inst.items]

    def _match_row_factors(self, g_types, factors, pos: int) -> list[int]:
        targets, used = [], set()
        for t in g_types:
            hits = [i for i, f in enumerate(factors) if f == t and i not in used]
            if not hits:
                _err(self.text, pos, f"no unused factor of type {t} for the row")
            targets.append(hits[0])
            used.add(hits[0])
        return targets

    def _parse_item(self, token: str, pos: int, factors: list[SimpleType]) -> HItem:
        target_sel = None
        m = re.match(r"(.*?)\s+in\s+(.*)$", token)
        if m:
            token, target_sel = m.group(1).strip(), m.group(2).strip()
        dm = re.fullmatch(r"diag\((.*)\)", token)
        if dm:
            dtype = _parse_factor(dm.group(1), self.text, pos)
            targets = self._two_targets(target_sel, pos, factors)
            for t in targets:
                if factors[t] != dtype:
                    _err(self.text, pos, f"diag({dm.group(1)}) targets non-matching factor")
            return HItem("diag", None, targets, dtype)
        if token.lower() == "bridge":
            return HItem("bridge", None, self._two_targets(target_sel, pos, factors))
        base = _named_item_base(token, self.text, pos)
        if base is None:
            _err(self.text, pos, f"unknown subalgebra item {token!r}")
        target = self._one_target(target_sel, pos, factors)
        b, size = base
        # inside a symplectic factor the rank-one items coincide
        if factors[target].series == "C" and (b, size) in {("sp", 2), ("so", 3)}:
            b, size = "sl", 2
        try:
            return HItem(b, size, (target,))
        except ConstraintError as exc:
            _err(self.text, pos, str(exc))

    def _one_target(self, sel: str | None, pos: int, factors: list[SimpleType]) -> int:
        if sel is None:
            if len(factors) == 1:
                return 0
            _err(self.text, pos, "item needs an 'in' clause when the algebra has several factors")
        if sel.isdigit():
            idx = _number(self.text, pos, sel) - 1
            if not (0 <= idx < len(factors)):
                _err(self.text, pos, f"factor {sel} does not exist")
            return idx
        t = _parse_factor(sel, self.text, pos)
        hits = [i for i, f in enumerate(factors) if f == t]
        if len(hits) != 1:
            _err(self.text, pos, f"'in {sel}' does not name a unique factor")
        return hits[0]

    def _two_targets(self, sel: str | None, pos: int, factors: list[SimpleType]) -> tuple[int, int]:
        if sel is None:
            if len(factors) == 2:
                return (0, 1)
            _err(self.text, pos, "item needs 'in i,j' when the algebra is not a two-factor sum")
        parts = [p.strip() for p in sel.split(",")]
        if len(parts) != 2 or not all(p.isdigit() for p in parts):
            _err(self.text, pos, f"bad target pair {sel!r}")
        a, b = (_number(self.text, pos, p) - 1 for p in parts)
        for t in (a, b):
            if not (0 <= t < len(factors)):
                _err(self.text, pos, f"factor {t + 1} does not exist")
        return (a, b)

    def _parse_zrows(self, ztext: str, zpos: int, pair: ReductivePair) -> RationalSubspace:
        slots = pair.family_slots()
        ambient = pair.center_dim + len(slots)
        rows = []
        for rowtext in ztext.split(";"):
            coords = [Fraction(0)] * ambient
            for term in cat.split_top(rowtext, "+"):
                term = term.strip()
                if not term:
                    _err(self.text, zpos, "empty central term")
                coef = Fraction(1)
                m = re.match(r"(-?\d+(?:/\d+)?)\s*\*\s*(.*)$", term)
                if m:
                    coef, term = _number(self.text, zpos, m.group(1), Fraction), m.group(2).strip()
                elif term.startswith("-"):
                    coef, term = Fraction(-1), term[1:].strip()
                m = re.fullmatch(r"z0\((\d+)\)", term)
                if m:
                    j = _number(self.text, zpos, m.group(1)) - 1
                    if not (0 <= j < pair.center_dim):
                        _err(self.text, zpos, f"central coordinate z0({j + 1}) does not exist")
                    coords[j] += coef
                    continue
                m = re.fullmatch(r"pi_v\((\d+)\)(?:@(\d+))?", term)
                if not m:
                    _err(self.text, zpos, f"bad central term {term!r}")
                idx = _number(self.text, zpos, m.group(1))
                if m.group(2) is not None:
                    factor = _number(self.text, zpos, m.group(2)) - 1
                else:
                    if not slots:
                        _err(self.text, zpos, "no factor admits a central extension here")
                    if len(slots) > 1:
                        _err(self.text, zpos,
                             "pi_v needs an '@factor' qualifier when several factors extend centrally")
                    factor = slots[0]
                if factor not in slots:
                    _err(self.text, zpos,
                         f"factor {factor + 1} admits no central extension")
                zgen = cat.family_row_for_factor(pair.factors[factor],
                                                 pair.items_on_factor(factor)).aux["zgen"]
                if zgen != idx:
                    _err(self.text, zpos,
                         f"pi_v({idx}) is not the central generator on factor {factor + 1} "
                         f"(expected pi_v({zgen}))")
                coords[pair.center_dim + slots.index(factor)] += coef
            rows.append(tuple(coords))
        return span(rows, ambient)


def parse_pair(text: str) -> ReductivePair:
    """Parse a pair expression; raises PairSyntaxError with a byte offset."""
    return _PairParser(text).parse()


def format_pair(pair: ReductivePair) -> str:
    """Canonical textual form; parsing it back gives an equal pair."""
    gpart = pair.describe_g()
    items = []
    multi = len(pair.factors) > 1
    for it in pair.items:
        if it.base == "diag":
            s = f"diag({cat.classical_name(it.diag_type)})"
            s += f" in {it.targets[0] + 1},{it.targets[1] + 1}"
        elif it.base == "bridge":
            s = f"bridge in {it.targets[0] + 1},{it.targets[1] + 1}"
        else:
            s = it.describe().split("@")[0]
            if multi:
                s += f" in {it.targets[0] + 1}"
        items.append(s)
    text = gpart + "/" + "+".join(items)
    if pair.center is not None and pair.center.dim > 0:
        slots = pair.family_slots()
        rows = []
        for row in pair.center.basis:
            terms = []
            for j, x in enumerate(row):
                if x == 0:
                    continue
                if j < pair.center_dim:
                    name = f"z0({j + 1})"
                else:
                    factor = slots[j - pair.center_dim]
                    zgen = cat.family_row_for_factor(
                        pair.factors[factor], pair.items_on_factor(factor)).aux["zgen"]
                    name = f"pi_v({zgen})@{factor + 1}"
                terms.append(name if x == 1 else f"{x}*{name}")
            rows.append("+".join(terms))
        text += "+z=[" + ";".join(rows) + "]"
    return text


# ---------------------------------------------------------------------------
# printing
# ---------------------------------------------------------------------------

def _weight_label(pair: ReductivePair, coord: int, bourbaki: bool) -> str:
    acc = 0
    for f, t in enumerate(pair.factors):
        if coord < acc + t.rank:
            j = coord - acc
            label = vo_to_bourbaki(t)[j] if bourbaki else j + 1
            return "pi" + "'" * f + f"_{label}"
        acc += t.rank
    return f"z_{coord - acc + 1}"


def format_vector(pair: ReductivePair, v, bourbaki: bool = False) -> str:
    terms = []
    for j, x in enumerate(v):
        if x == 0:
            continue
        name = _weight_label(pair, j, bourbaki)
        if x == 1:
            terms.append(name)
        elif x == -1:
            terms.append(f"-{name}")
        else:
            terms.append(f"{x}*{name}")
    return " + ".join(terms).replace("+ -", "- ") if terms else "0"


def _basis_columns(pair: ReductivePair, basis, bourbaki: bool):
    """Rows as string fractions, columns permuted per output convention."""
    if not bourbaki:
        return [[str(x) for x in row] for row in basis]
    out = []
    offsets = []
    acc = 0
    for t in pair.factors:
        offsets.append(acc)
        acc += t.rank
    for row in basis:
        new = [None] * len(row)
        for f, t in enumerate(pair.factors):
            perm = vo_to_bourbaki(t)
            for j in range(t.rank):
                new[offsets[f] + perm[j] - 1] = str(row[offsets[f] + j])
        for j in range(pair.center_dim):
            new[acc + j] = str(row[acc + j])
        out.append(new)
    return out


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_compute(expr: str, as_json: bool = False, bourbaki: bool = False, out=None) -> int:
    out = out if out is not None else sys.stdout
    try:
        pair = parse_pair(expr)
    except PairSyntaxError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
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


def _sample_params(entry: cat.CatalogEntry) -> list[dict]:
    """The row's minimal parameters, and the shifted ones when they differ."""
    tried = [cat.minimal_params(entry)]
    bumped = cat.shifted_params(entry, 2)
    if bumped != tried[0]:
        tried.append(bumped)
    return tried


def _verify_table(table: str, out) -> list[cat.Check]:
    checks: list[cat.Check] = []
    catalog = get_catalog()
    for entry in catalog.rows(table):
        if table == "T3.2":
            series = entry.g_pattern[0].base
            if series in ("A", "B", "C", "D"):
                lo = {"A": 1, "B": 2, "C": 2, "D": 3}[series]
                ranks = range(lo, 13)
            else:
                ranks = [None]
            for l in ranks:
                checks.extend(verify_entry(entry, {} if l is None else {"l": l}))
            continue
        for params in _sample_params(entry):
            checks.extend(verify_entry(entry, params))
    for c in checks:
        print(str(c), file=out)
    return checks


def _verify_alpha_contracts(out) -> list[cat.Check]:
    """Duality functionals: solvable, annihilate the stored saturated spaces."""
    checks = []
    catalog = get_catalog()
    for entry in catalog.rows("T1.6"):
        for params in _sample_params(entry):
            inst = instantiate(entry, params)
            try:
                fn = engine.alpha_functional(entry, params)
                ann = all(fn(b) == 0 for b in inst.aux["sat"].basis)
                val = fn(inst.aux["lam"]) == inst.aux["alpha_value"]
                ok, detail = ann and val, (
                    f"value {fn(inst.aux['lam'])} at the stored weight, "
                    f"annihilates saturated: {ann}")
            except CartanError as exc:
                ok, detail = False, str(exc)
            checks.append(cat.Check(
                f"T1.6:{entry.row} duality-functional contract at {params}", ok, detail))
    for c in checks:
        print(str(c), file=out)
    return checks


def cmd_verify(target: str, out=None) -> int:
    out = out if out is not None else sys.stdout
    tables = ["T1.4", "T1.6", "T3.2", "T3.4", "T3.6", "T3.7", "T4.8"]
    if target != "all":
        if target not in tables:
            print(f"unknown table {target!r}; choose one of {', '.join(tables)} or 'all'",
                  file=sys.stderr)
            return 1
        tables = [target]
    checks: list[cat.Check] = []
    for t in tables:
        checks.extend(_verify_table(t, out))
        if t == "T1.6":
            checks.extend(_verify_alpha_contracts(out))
    failed = [c for c in checks if not c.passed]
    print(f"{len(checks)} checks, {len(failed)} failed", file=out)
    return 1 if failed else 0


def survey_pairs(max_rank: int):
    """All catalog-instantiable pairs with rk(g) <= max_rank, in table order."""
    if max_rank > 12:
        raise ConstraintError("survey is limited to rank 12")
    catalog = get_catalog()
    seen = []
    for entry in catalog.rows("T1.4") + catalog.rows("T1.6"):
        for params in cat.admissible_params(entry, bound=2 * max_rank + 3):
            # admissible params resolve; drop the large ones before instantiating
            if sum(tp.resolve(params).rank for tp in entry.g_pattern) > max_rank:
                continue
            try:
                inst = instantiate(entry, params)
            except CartanError:
                continue
            center = None
            if entry.table == "T1.6":
                center = span([[1]], 1)
            try:
                pair = ReductivePair(inst.g_types, 0, inst.items, center)
                result = engine.cartan_space(pair)
            except CartanError:
                continue
            key = (entry.table, int(entry.row), tuple(sorted(params.items())))
            seen.append((key, pair, result))
    seen.sort(key=lambda x: x[0])
    return seen


def cmd_survey(max_rank: int, filt: str, out=None) -> int:
    out = out if out is not None else sys.stdout
    try:
        rows = survey_pairs(max_rank)
    except CartanError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    want = None
    if filt == "spherical":
        want = 0
    elif filt.startswith("complexity="):
        want = int(filt.split("=", 1)[1])
    elif filt:
        print(f"unknown filter {filt!r}", file=sys.stderr)
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

    args = parser.parse_args(argv)
    if args.command == "compute":
        return cmd_compute(args.expr, args.json, args.bourbaki)
    if args.command == "verify":
        return cmd_verify(args.table)
    return cmd_survey(args.max_rank, args.filt)


if __name__ == "__main__":
    sys.exit(main())
