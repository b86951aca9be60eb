"""The classification tables, loaded from data files, plus the pair model.

Tables live in plain-text files under ``tables/`` (override the directory
with the ``CARTAN_DATA_DIR`` environment variable).  Each nonempty,
non-comment line is one record of ``key=value`` fields; values with spaces
are double-quoted.  The field grammars are documented in the data files and
in the README.  ``_FIELDS`` names the one parser of each field and
``_ROW_FIELDS`` the fields of each table's rows; the load runs both, so
entries hold parsed values, frozen and shared.

This module also defines the input model for computations: a
:class:`ReductivePair` is a reductive algebra (simple factors plus a central
torus) together with a list of subalgebra items and an optional central
subspace expressed in the canonical one-dimensional centralizer generators.
"""

from __future__ import annotations

import itertools
import os
import re
import threading
from dataclasses import dataclass, field, replace
from functools import cached_property, lru_cache
from fractions import Fraction
from pathlib import Path
from typing import Sequence

from . import exprs
from .errors import CartanError, ConstraintError, ContractError, DimensionError, TableFormatError
from .indexes import dynkin_index_of, module_index_complement_types
from .ratlinalg import (
    RationalSubspace,
    Vector,
    dot,
    kernel_basis,
    member,
    rref,
    span,
)
from .rootsystems import (
    AMBIENT_CEILING,
    CLASSICAL,
    EXCEPTIONAL,
    SimpleType,
    algebra,
    build_root_system,
    dual_weight_permutation,
    size_dim,
    weyl_dim,
)

TABLE_FILES = {
    "T1.4": "t14.tbl",
    "T1.6": "t16.tbl",
    "T3.2": "t32.tbl",
    "T3.4": "t34.tbl",
    "T3.6": "t36.tbl",
    "T3.7": "t37.tbl",
    "T4.8": "t48.tbl",
}

# ---------------------------------------------------------------------------
# record parsing
# ---------------------------------------------------------------------------

_FIELD = re.compile(r'(\w[\w.]*)=("([^"]*)"|\S+)')


def split_top(text: str, sep: str) -> list[str]:
    """Split on a separator character, ignoring occurrences inside () or []."""
    parts, depth, cur = [], 0, []
    for ch in text:
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
        if ch == sep and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    parts.append("".join(cur))
    return parts


def _parse_record(line: str) -> dict[str, str]:
    fields: dict[str, str] = {}
    pos = 0
    while pos < len(line):
        if line[pos].isspace():
            pos += 1
            continue
        m = _FIELD.match(line, pos)
        if not m:
            raise TableFormatError(f"malformed field at column {pos + 1}")
        key = m.group(1)
        if key in fields:
            raise TableFormatError(f"field {key!r} given twice")
        fields[key] = m.group(3) if m.group(3) is not None else m.group(2)
        pos = m.end()
    return fields


# ---------------------------------------------------------------------------
# type and item patterns
# ---------------------------------------------------------------------------

_TYPE_PAT = re.compile(r"([A-Za-z]\w*)(?:\(([^()]*)\))?$")


@dataclass(frozen=True)
class TypePattern:
    """A parameterized simple-type expression such as so(4*n+2) or X(r)."""

    base: str  # 'sl' | 'so' | 'sp' | rank-form series letter | 'X' | exceptional name
    arg: str | None

    def resolve(self, params: dict) -> SimpleType:
        if self.base == "X":
            # the series parameter names a series letter, never a matrix name
            series = params.get("s")
            if not isinstance(series, str):
                raise ConstraintError("pattern X(...) needs a series parameter 's'")
            return SimpleType(series, exprs.evaluate_int(self.arg, params))
        return algebra(self.base, None if self.arg is None
                       else exprs.evaluate_int(self.arg, params))


_TYPE_BASES = {"sl", "so", "sp", "A", "B", "C", "D", "X"} | set(EXCEPTIONAL)


def parse_type_pattern(text: str, bases=_TYPE_BASES) -> TypePattern:
    m = _TYPE_PAT.match(text.strip())
    if not m:
        raise TableFormatError(f"bad type pattern {text!r}")
    base, arg = m.groups()
    if base not in bases:
        raise TableFormatError(f"unknown type pattern base {base!r}")
    if (arg is None) != (base in EXCEPTIONAL):  # only the exceptional types take none
        raise TableFormatError(f"bad argument in type pattern {text.strip()!r}")
    if arg is not None:
        exprs.syntax_check(arg)
    return TypePattern(base, arg)


def parse_g_pattern(text: str) -> tuple[TypePattern, ...]:
    return tuple(parse_type_pattern(part) for part in split_top(text, "+"))


ITEM_BASES = {"sl", "so", "sp", "spin", "g2", "f4", "e6", "e7", "diag", "bridge", "sl2long"}


@dataclass(frozen=True)
class ItemPattern:
    base: str
    arg: str | None
    targets: tuple[int, ...]  # 0-based positions in the row's g pattern


def parse_h_pattern(text: str) -> tuple[ItemPattern, ...]:
    items = []
    for part in split_top(text, "*"):
        part = part.strip()
        targets: tuple[int, ...] = (0,)
        if "@" in part:
            part, tail = part.split("@", 1)
            if not all(x.isdigit() for x in tail.split(",")):
                raise TableFormatError(f"bad item targets {tail!r}")
            targets = tuple(int(x) - 1 for x in tail.split(","))
            if len(set(targets)) < len(targets):
                raise TableFormatError(f"item targets {tail!r} name a factor twice")
        m = _TYPE_PAT.match(part)
        if not m or m.group(1) not in ITEM_BASES:
            raise TableFormatError(f"bad subalgebra item {part!r}")
        if m.group(2) is not None:
            exprs.syntax_check(m.group(2))
        items.append(ItemPattern(m.group(1), m.group(2), targets))
    return tuple(items)


def size_type(base: str, size: int | None) -> SimpleType:
    """SimpleType of a named algebra (`algebra`), with so(3) = sl(2)."""
    if base == "so" and size == 3:
        return SimpleType("A", 1)
    return algebra(base, size)


# ---------------------------------------------------------------------------
# symbolic weight expressions
# ---------------------------------------------------------------------------

_WTERM = re.compile(r"pi(\*?)('{0,2})\(([^()]*)\)$")


@dataclass(frozen=True)
class WeightGroup:
    """One generator group: a list of weight sums, optionally ranged."""

    sums: tuple[tuple[tuple[bool, int, str], ...], ...]  # (dualize, factor, index expr)
    rng: tuple[str, str, str] | None                     # (var, lo, hi)


_RANGE = re.compile(r"\s*(\w+)\s*=\s*(.+?)\s*\.\.\s*(.+?)\s*$")


def _parse_wsum(text: str) -> tuple[tuple[bool, int, str], ...]:
    terms = []
    for piece in split_top(text, "+"):
        m = _WTERM.match(piece.strip())
        if not m:
            raise TableFormatError(f"bad weight term {piece.strip()!r}")
        exprs.syntax_check(m.group(3))
        terms.append((m.group(1) == "*", len(m.group(2)), m.group(3)))
    return tuple(terms)


def parse_weight_groups(text: str) -> tuple[WeightGroup, ...]:
    """Groups `sums | sums : var = lo .. hi | ...`, each sum list `,`-joined."""
    groups = []
    for part in text.split("|"):
        part = part.strip()
        if not part:
            continue
        rng = None
        if ":" in part:
            part, tail = part.split(":", 1)
            m = _RANGE.match(tail)
            if not m:
                raise TableFormatError(f"bad range {tail!r}")
            rng = m.groups()
            exprs.syntax_check(rng[1])
            exprs.syntax_check(rng[2])
        groups.append(WeightGroup(tuple(_parse_wsum(s) for s in part.split(",")), rng))
    return tuple(groups)


def instantiate_weight_groups(
    groups: Sequence[WeightGroup],
    params: dict,
    factor_types: Sequence[SimpleType],
) -> list[tuple[int, ...]]:
    """Evaluate symbolic generators to integer vectors over the factors.

    The ambient is the concatenation of the fundamental-weight blocks of the
    factors, in order.
    """
    ranks = [t.rank for t in factor_types]
    offsets = [sum(ranks[:i]) for i in range(len(ranks))]
    total = sum(ranks)
    duals = [dual_weight_permutation(t) for t in factor_types]
    out: list[tuple[int, ...]] = []
    for g in groups:
        envs = [params]
        if g.rng is not None:
            var, lo, hi = g.rng
            values = range(exprs.evaluate_int(lo, params), exprs.evaluate_int(hi, params) + 1)
            envs = [{**params, var: value} for value in values]
        for env in envs:
            for terms in g.sums:
                v = [0] * total
                for dualize, factor, idx_expr in terms:
                    if factor >= len(factor_types):
                        raise TableFormatError("weight term refers to a missing factor")
                    idx = exprs.evaluate_int(idx_expr, env)
                    if not (1 <= idx <= ranks[factor]):
                        raise ConstraintError(
                            f"weight index {idx} out of range for factor {factor_types[factor]}"
                        )
                    if dualize:
                        idx = duals[factor][idx - 1] + 1
                    v[offsets[factor] + idx - 1] += 1
                out.append(tuple(v))
    return out


# ---------------------------------------------------------------------------
# other fields: relations, expressions, flags and normalizer rows (T4.8)
# ---------------------------------------------------------------------------

def _relations(text: str, sep: str = ";") -> tuple[str, ...]:
    found = tuple(c.strip() for c in text.split(sep) if c.strip())
    for c in found:
        exprs.syntax_check_relation(c)
    return found


def _expression(text: str) -> str:
    """Kept as text: `exprs` caches the compiled closure by it."""
    exprs.syntax_check(text)
    return text


def _flag(text: str) -> bool:
    if text not in ("true", "false"):
        raise TableFormatError(f"exhaustive must be true or false, got {text!r}")
    return text == "true"


_NORM_BASES = {"sl", "so", "sp"} | set(EXCEPTIONAL)


def _parse_norm(text: str) -> tuple[TypePattern, ...]:
    """Normalizer factors; 'Z' is a one-dimensional torus."""
    return tuple(TypePattern("Z", None) if part.strip() == "Z"
                 else parse_type_pattern(part, _NORM_BASES) for part in split_top(text, "*"))


_MOD_SUMMAND = re.compile(r"(?:z\((-?\d+)\)\s*:\s*)?(.*)$")
_MOD_TERM = re.compile(r"(tau|taus|w2|w2s|rep)\((\d+)(?:,(\d+))?\)$")


def _parse_mods(text: str) -> tuple[tuple[int, tuple[tuple[str, int, int | None], ...]], ...]:
    """Summands as (torus exponent, terms); a term is (kind, factor,
    highest-weight index of a rep or None)."""
    out = []
    for summand in split_top(text, "+"):
        zexp, body = _MOD_SUMMAND.match(summand.strip()).groups()
        terms = []
        for term in split_top(body, "*"):
            m = _MOD_TERM.match(term.strip())
            if not m or (m.group(1) == "rep") != (m.group(3) is not None):
                raise TableFormatError(f"bad module term {term.strip()!r}")
            if m.group(3) is not None and int(m.group(3)) < 1:
                raise TableFormatError(f"module term {term.strip()!r} names highest weight "
                                       f"{m.group(3)}; fundamental weights count from 1")
            terms.append((m.group(1), int(m.group(2)), int(m.group(3)) if m.group(3) else None))
        out.append((int(zexp or 0), tuple(terms)))
    return tuple(out)


def _parse_ideals(text: str) -> tuple[tuple[tuple[int, ...], tuple[str, ...]], ...]:
    """Candidate ideal sequences with the relations that condition them."""
    out = []
    for part in text.split("|"):
        if not part.strip():
            continue
        seq, _, cond = part.partition(":")
        if not all(x.strip().isdigit() for x in seq.split(",")):
            raise TableFormatError(f"bad ideal sequence {seq.strip()!r}")
        out.append((tuple(int(x) for x in seq.split(",")), _relations(cond, "&")))
    return tuple(out)


# ---------------------------------------------------------------------------
# the record schema
# ---------------------------------------------------------------------------

# Each record field and the one function that parses its text.
_FIELDS = {
    "table": str, "row": str,
    "g": parse_g_pattern, "h": parse_h_pattern, "constraint": _relations,
    "gens": parse_weight_groups, "lam": parse_weight_groups,
    "sat": parse_weight_groups,
    "zgen": _expression, "alpha": _expression, "kform": _expression, "module": str,
    "norm": _parse_norm, "mods": _parse_mods, "ideals": _parse_ideals, "exhaustive": _flag,
}

# The fields each table's rows must carry, then those they may carry.
_ROW_FIELDS = {
    "T1.4": ("g h gens", "constraint"),
    "T1.6": ("g h zgen lam alpha sat", "constraint"),
    "T3.2": ("g kform", ""),
    "T3.4": ("g h", "constraint"),
    "T3.6": ("g h", "constraint"),
    "T3.7": ("g h module", "constraint"),
    "T4.8": ("g norm mods ideals", "constraint exhaustive"),
}


# ---------------------------------------------------------------------------
# catalog entries
# ---------------------------------------------------------------------------

_AFFINE_ARG = re.compile(r"(?:([1-9]\d*)\*)?([A-Za-z_]\w*)([+-]\d+)?")


@dataclass(frozen=True)
class CatalogEntry:
    table: str
    row: str          # row number as text ('3') or a series key ('G')
    g_pattern: tuple[TypePattern, ...]
    h_pattern: tuple[ItemPattern, ...]
    constraints: tuple[str, ...]
    gens: tuple[WeightGroup, ...]
    aux: dict = field(default_factory=dict, compare=False)  # the row's other fields, parsed

    @property
    def row_id(self) -> str:
        return f"{self.table}:{self.row}"

    @cached_property
    def affine_args(self) -> dict[str, tuple[tuple[str, int, int], ...]]:
        """Variable -> (base, step, offset) of each g, h or norm pattern
        argument `[step*]name[+offset]` in that variable alone."""
        out: dict[str, list] = {}
        for p in self.g_pattern + self.h_pattern + self.aux.get("norm", ()):
            if p.arg is None or len(exprs.variables(p.arg)) != 1:
                continue
            m = _AFFINE_ARG.fullmatch(p.arg.replace(" ", ""))
            if not m:
                raise TableFormatError(f"argument {p.arg!r} is not affine in its variable")
            out.setdefault(m.group(2), []).append(
                (p.base, int(m.group(1) or 1), int(m.group(3) or 0)))
        return {name: tuple(found) for name, found in out.items()}

    @cached_property
    def variables(self) -> tuple[str, ...]:
        names: set[str] = set()
        for tp in self.g_pattern:
            if tp.arg:
                names |= exprs.variables(tp.arg)
            if tp.base == "X":
                names.add("s")
        for ip in self.h_pattern:
            if ip.arg:
                names |= exprs.variables(ip.arg)
        for c in self.constraints:
            names |= exprs.variables(c)
        return tuple(sorted(names))

    def violated(self, params: dict) -> str | None:
        """The first constraint the parameters break, or None."""
        return next((c for c in self.constraints if not exprs.check_relation(c, params)), None)

    def check_constraints(self, params: dict) -> None:
        c = self.violated(params)
        if c is not None:
            raise ConstraintError(f"{self.row_id}: parameters {params} violate {c!r}")


class Catalog:
    """All classification tables, loaded once from a data directory."""

    def __init__(self, data_dir: Path):
        self.data_dir = data_dir
        self.entries: dict[tuple[str, str], CatalogEntry] = {}
        for table, fname in TABLE_FILES.items():
            path = data_dir / fname
            if not path.exists():
                raise TableFormatError(f"missing table file {path}")
            for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                try:
                    rec = _parse_record(line)
                    entry = self._build_entry(rec)
                except (TableFormatError, ConstraintError) as exc:
                    raise TableFormatError(f"{path.name}:{lineno}: {exc}") from exc
                key = (entry.table, entry.row)
                if key in self.entries:
                    raise TableFormatError(f"{path.name}:{lineno}: duplicate row {key}")
                self.entries[key] = entry
        # each table's rows in (string) row order, the order refusal texts follow
        self._rows: dict[str, list[CatalogEntry]] = {}
        for (table, _), entry in sorted(self.entries.items()):
            self._rows.setdefault(table, []).append(entry)
        # by (factor, items), once for this catalog: a(g, h), and the family row
        # once its sat and lam are checked to split a(g, h) as hyperplane + weight
        self.family_row = lru_cache(maxsize=4096)(self._family_row)
        self.bare_space = lru_cache(maxsize=4096)(self._bare_space)

    def _family_row(self, g_type: SimpleType, local: tuple[HItem, ...]) -> RowInstance | None:
        for entry in self.rows("T1.6"):
            res = match_row(entry, [g_type], list(local))
            if res is not None:
                inst = instantiate(entry, res[0])
                sat, lam = inst.aux["sat"], inst.aux["lam"]
                full = self.bare_space(g_type, inst.items)
                if member(sat, lam) or span([*sat.basis, lam], full.ambient_dim) != full:
                    raise ContractError(f"{entry.row_id} at {res[0]}: sat and lam do not split "
                                        "a(g, h) into a hyperplane and a weight off it")
                return inst
        return None

    def _bare_space(self, g_type: SimpleType, items: tuple[HItem, ...]) -> RationalSubspace:
        """a(g, h) of a one-factor pair: its T1.4 row's space, else the whole weight block."""
        for entry in self.rows("T1.4"):
            res = match_row(entry, [g_type], list(items))
            if res is not None:
                return span(instantiate(entry, res[0]).gens, g_type.rank)
        return span(kernel_basis([], g_type.rank), g_type.rank)

    @staticmethod
    def _build_entry(rec: dict[str, str]) -> CatalogEntry:
        table = rec.get("table")
        if table not in _ROW_FIELDS or "row" not in rec:
            raise TableFormatError(f"record needs a known table= and a row=, got {table!r}")
        required, optional = _ROW_FIELDS[table]
        allowed = {"table", "row", *required.split(), *optional.split()}
        for key in rec:
            if key not in allowed:
                raise TableFormatError(f"unknown field {key!r}")
        for name in required.split():
            if name not in rec:
                raise TableFormatError(f"{table} row needs field {name!r}")
        aux = {key: _FIELDS[key](text) for key, text in rec.items()}
        entry = CatalogEntry(aux.pop("table"), aux.pop("row"), aux.pop("g"), aux.pop("h", ()),
                             aux.pop("constraint", ()), aux.pop("gens", ()), aux)
        # factor numbers are 1-based: item targets count the factors of g,
        # module terms the simple factors of norm
        factors = len(entry.g_pattern)
        for t in (t + 1 for ip in entry.h_pattern for t in ip.targets):
            if not 1 <= t <= factors:
                raise TableFormatError(f"item target {t} is not one of the {factors} factors of g")
        factors = sum(tp.base != "Z" for tp in aux.get("norm", ()))
        for f in (f for _, terms in aux.get("mods", ()) for _, f, _ in terms):
            if not 1 <= f <= factors:
                raise TableFormatError(f"module term factor {f} is not one of the {factors} "
                                       "simple factors of norm")
        # matching binds each variable, and enumeration bounds it, from the
        # arguments it occurs alone in
        missing = set(entry.variables) - set(entry.affine_args) - {"s"}
        if missing:
            raise TableFormatError(f"variable {min(missing)!r} occurs alone in no pattern argument")
        return entry

    def lookup(self, table: str, row) -> CatalogEntry:
        key = (table, str(row))
        if key not in self.entries:
            raise ConstraintError(f"unknown catalog row {table}:{row}")
        return self.entries[key]

    def rows(self, table: str) -> list[CatalogEntry]:
        return self._rows.get(table, [])


_CATALOG: Catalog | None = None
_CATALOG_ENV: str | None = None   # the CARTAN_DATA_DIR that _CATALOG was loaded for
_CATALOG_LOCK = threading.Lock()


def get_catalog() -> Catalog:
    """The catalog of the current data directory; threads that ask at once
    for a new one wait for a single load."""
    global _CATALOG, _CATALOG_ENV
    env = os.environ.get("CARTAN_DATA_DIR")
    with _CATALOG_LOCK:
        if _CATALOG is None or env != _CATALOG_ENV:
            _CATALOG = Catalog(Path(env) if env else Path(__file__).parent / "tables")
            _CATALOG_ENV = env
        return _CATALOG


def lookup(table: str, row) -> CatalogEntry:
    return get_catalog().lookup(table, row)


# ---------------------------------------------------------------------------
# reductive pairs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HItem:
    """One subalgebra item of a pair: a named embedded ideal.

    `base` and `size` are the surface description (sl/so/sp/spin with the
    matrix size, or g2/f4/e6/e7/diag/bridge/sl2long); `targets` are the
    indices of the ambient factors it lives in: two for diag and bridge, one
    otherwise.  A diag item carries its type.
    """

    base: str
    size: int | None
    targets: tuple[int, ...]
    diag_type: SimpleType | None = None

    def __post_init__(self):
        b, n = self.base, self.size
        two = b in ("diag", "bridge")
        if len(self.targets) != 1 + two:
            raise ConstraintError(f"{b} lives in {'two factors' if two else 'one factor'}, "
                                  f"not {len(self.targets)}")
        if len(set(self.targets)) < len(self.targets):
            raise ConstraintError(f"{b} names factor {self.targets[0] + 1} twice")
        if b == "diag" and self.diag_type is None:
            raise ConstraintError("diag needs its type")
        if b in ("sl", "so", "sp", "spin") and not isinstance(n, int):
            raise ConstraintError(f"{b} needs an integer size, got {n!r}")
        if b == "sp" and (n % 2 or n < 2):
            raise ConstraintError(f"sp({n}) is not an algebra")
        if b == "sl" and n < 2:
            raise ConstraintError(f"sl({n}) is not simple")
        if b == "so" and n < 3:
            raise ConstraintError(f"so({n}) is not available")
        if b == "spin" and n != 7:
            raise ConstraintError("only spin(7) is a named spinor subalgebra")

    @property
    def dim(self) -> int:
        if self.base in ("sl", "so", "sp", "spin"):
            return size_dim("so" if self.base == "spin" else self.base, self.size)
        return self.simple_type.dim

    @property
    def simple_type(self) -> SimpleType:
        """Abstract isomorphism type of the ideal."""
        if self.base in ("sl", "so", "sp", "spin"):
            return size_type("so" if self.base == "spin" else self.base, self.size)
        if self.base == "diag":
            return self.diag_type
        if self.base in ("bridge", "sl2long"):
            return SimpleType("A", 1)
        return algebra(self.base.upper())

    def describe(self) -> str:
        if self.base in ("sl", "so", "sp", "spin"):
            name = f"{self.base}({self.size})"
        elif self.base == "diag":
            name = f"diag({self.diag_type.name})"
        else:
            name = self.base
        if len(self.targets) > 1 or self.targets != (0,):
            name += "@" + ",".join(str(t + 1) for t in self.targets)
        return name


@dataclass(frozen=True)
class ReductivePair:
    """A reductive ambient algebra with an embedded reductive subalgebra.

    The central subspace, when present, lives in coordinates
    [z(g) coordinates..., one coordinate per extendable factor in factor
    order], where a factor is extendable when its items form an extension
    family with a one-dimensional centralizer center (see `families`).
    Construction refuses an item that targets a missing factor, or a diag
    item whose type is not that of its factors.
    """

    factors: tuple[SimpleType, ...]
    center_dim: int = 0
    items: tuple[HItem, ...] = ()
    center: RationalSubspace | None = None

    def __post_init__(self):
        if self.weight_ambient > AMBIENT_CEILING:
            raise ConstraintError(
                f"weight ambient {self.weight_ambient} (rank {self.rank_g} plus "
                f"center({self.center_dim})) is above {AMBIENT_CEILING}")
        for item in self.items:
            for t in item.targets:
                if not (0 <= t < len(self.factors)):
                    raise ConstraintError(f"item {item.describe()} targets missing factor {t + 1}")
                if item.base == "diag" and self.factors[t] != item.diag_type:
                    raise ConstraintError(
                        f"item {item.describe()} targets factor {t + 1} of type {self.factors[t]}")
        if self.center is not None:
            if self.center.dim == 0:
                raise ConstraintError("zero central part; leave the center out")
            expected = self.center_dim + len(self.families)
            if self.center.ambient_dim != expected:
                raise DimensionError(
                    f"central subspace ambient {self.center.ambient_dim}, expected {expected}"
                )

    def columns(self, f: int) -> range:
        """The weight coordinates of factor f."""
        start = sum(t.rank for t in self.factors[:f])
        return range(start, start + self.factors[f].rank)

    def items_on_factor(self, f: int) -> tuple[HItem, ...]:
        return tuple(it for it in self.items if it.targets == (f,))

    @cached_property
    def families(self) -> dict[int, RowInstance]:
        """Each factor admitting a one-dimensional central extension, in factor
        order, with its T1.6 row instance (checked: `Catalog.family_row`).

        A factor owns a central coordinate exactly when the items living on
        it (and only on it) form a central-extension family row.
        """
        crossed = {t for it in self.items if len(it.targets) > 1 for t in it.targets}
        rows = {f: family_row_for_factor(t, local) for f, t in enumerate(self.factors)
                if f not in crossed and (local := self.items_on_factor(f))}
        return {f: inst for f, inst in rows.items() if inst is not None}

    @property
    def dim_g(self) -> int:
        return sum(t.dim for t in self.factors) + self.center_dim

    @property
    def dim_h(self) -> int:
        return sum(it.dim for it in self.items) + (self.center.dim if self.center else 0)

    @property
    def rank_g(self) -> int:
        return sum(t.rank for t in self.factors)

    @property
    def weight_ambient(self) -> int:
        """Fundamental-weight coordinates of all factors plus z(g) block."""
        return self.rank_g + self.center_dim

    def describe_g(self) -> str:
        parts = [t.name for t in self.factors]
        if self.center_dim:
            parts.append(f"center({self.center_dim})")
        return "+".join(parts)


# ---------------------------------------------------------------------------
# row matching and instantiation
# ---------------------------------------------------------------------------

def _pattern_matches_type(tp: TypePattern, t: SimpleType, params: dict) -> bool:
    try:
        return tp.resolve(params) == t
    except (ConstraintError, TableFormatError):
        return False


def canonical_item_key(base: str, size: int | None, context: SimpleType) -> tuple:
    """(base, size) of an item in a factor of type `context`.  Inside a
    symplectic factor the rank-one corner items coincide: any of
    sl(2)/sp(2)/so(3) is the same two-by-two block, keyed as sl(2)."""
    if context.series == "C" and (base, size) in {("sp", 2), ("so", 3)}:
        return ("sl", 2)
    return (base, size)


def _item_key(item: HItem, context: SimpleType) -> tuple:
    return canonical_item_key(item.base, item.size, context)


def _pattern_item_key(ip: ItemPattern, params: dict, context: SimpleType) -> tuple:
    size = exprs.evaluate_int(ip.arg, params) if ip.arg else None
    return canonical_item_key(ip.base, size, context)


def _solve_assignments(entry: CatalogEntry, g_types: Sequence[SimpleType], sizes: set):
    """Yield parameter dicts making the row's g pattern equal the given types.

    Every variable but the series `s` occurs alone in an affine pattern
    argument (checked at load), and in a match that argument is one of the
    pair's sizes or ranks.  So only the values solving such an argument for
    such a size are tried, in lexicographic order.
    """
    names = entry.variables
    domains = [sorted({t.series for t in g_types}) if name == "s" else
               sorted({(size - offset) // step for _, step, offset in entry.affine_args[name]
                       for size in sizes if size >= offset and (size - offset) % step == 0})
               for name in names]
    for combo in itertools.product(*domains):
        params = dict(zip(names, combo))
        if all(_pattern_matches_type(tp, t, params) for tp, t in zip(entry.g_pattern, g_types)):
            yield params


def _candidates(entry: CatalogEntry, g_types: Sequence[SimpleType], items: Sequence[HItem]):
    """The single matching pass over one row.

    Yields (params, factor_map, violated) for every assignment whose g
    pattern and item multiset match the concrete factors and items, in
    permutation order; `violated` is the first constraint the parameters
    break, or None.
    """
    npos = len(entry.g_pattern)
    if len(g_types) != npos:
        return
    sizes = {it.size for it in items if it.size is not None} | {t.rank for t in g_types}
    sizes |= {t.classical_size for t in g_types if t.classical_size is not None}
    if sizes & {2, 3}:
        sizes |= {2, 3}  # sl(2), sp(2) and so(3) coincide inside sp(n)
    for perm in itertools.permutations(range(npos)):
        typed = [g_types[perm[p]] for p in range(npos)]
        have = sorted(
            (_item_key(it, g_types[it.targets[0]]),
             tuple(sorted(perm.index(t) for t in it.targets)))
            for it in items
        )
        for params in _solve_assignments(entry, typed, sizes):
            want = sorted(
                (_pattern_item_key(ip, params, typed[ip.targets[0]]),
                 tuple(sorted(ip.targets)))
                for ip in entry.h_pattern
            )
            if want != have:
                continue
            yield params, perm, entry.violated(params)


def match_row(
    entry: CatalogEntry,
    g_types: Sequence[SimpleType],
    items: Sequence[HItem],
) -> tuple[dict, tuple[int, ...]] | None:
    """Match concrete factors/items against a T1.4 row.

    Returns (params, factor_map) where factor_map[p] is the index in
    `g_types` assigned to pattern position p, or None when no admissible
    assignment exists.
    """
    for params, perm, violated in _candidates(entry, g_types, items):
        if violated is None:
            return params, perm
    return None


def match_t14(g_types: Sequence[SimpleType], items: Sequence[HItem]):
    """Find the unique T1.4 row matching the factors and items, if any.

    Returns (entry, params, factor_map).  Raises ConstraintError with the
    nearest violated constraint when the shape matches a row but the
    parameters fall outside its admissible range: the last violation met
    in the pass over the rows.
    """
    near_miss: str | None = None
    for entry in get_catalog().rows("T1.4"):
        for params, perm, violated in _candidates(entry, g_types, items):
            if violated is None:
                return entry, params, perm
            near_miss = f"{entry.row_id} requires {violated!r}, violated at {params}"
    if near_miss:
        raise ConstraintError(near_miss)
    return None


def family_row_for_factor(g_type: SimpleType, items: Sequence[HItem]) -> RowInstance | None:
    """The central-extension family row covering one factor's items, if any,
    instantiated at the matched parameters (cached by the catalog)."""
    local = tuple(sorted((replace(it, targets=(0,)) for it in items),
                         key=lambda it: (it.base, it.size or 0)))
    return get_catalog().family_row(g_type, local)


# ---------------------------------------------------------------------------
# instantiation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RowInstance:
    """A catalog row at concrete parameters."""

    entry: CatalogEntry
    params: dict
    g_types: tuple[SimpleType, ...]
    items: tuple[HItem, ...]
    gens: tuple[tuple[int, ...], ...]  # integers; ambient: concatenated weight blocks
    aux: dict

    @property
    def ambient(self) -> int:
        return sum(t.rank for t in self.g_types)

    @cached_property
    def pair(self) -> ReductivePair:
        """The pair a T1.4 or T1.6 instance spells; a T1.6 instance gets its
        one-dimensional central part."""
        center = span([[1]], 1) if self.entry.table == "T1.6" else None
        return ReductivePair(self.g_types, 0, self.items, center)


def instantiate(entry: CatalogEntry, params: dict) -> RowInstance:
    """Resolve a row's symbolic data at concrete parameters.

    Raises ConstraintError naming the violated inequality when the
    parameters are out of range.
    """
    entry.check_constraints(params)
    g_types = tuple(tp.resolve(params) for tp in entry.g_pattern)
    items = []
    for ip in entry.h_pattern:
        size = exprs.evaluate_int(ip.arg, params) if ip.arg else None
        diag_type = g_types[ip.targets[0]] if ip.base == "diag" else None
        base, size = canonical_item_key(ip.base, size, g_types[ip.targets[0]])
        items.append(HItem(base, size, ip.targets, diag_type))
    gens = tuple(instantiate_weight_groups(entry.gens, params, g_types)) if entry.gens else ()
    aux: dict = {}
    if entry.table == "T1.6":
        rank = g_types[0].rank
        aux.update(
            sat=span(instantiate_weight_groups(entry.aux["sat"], params, g_types), rank),
            lam=instantiate_weight_groups(entry.aux["lam"], params, g_types)[0],
            alpha_value=exprs.evaluate(entry.aux["alpha"], params),
            zgen=exprs.evaluate_int(entry.aux["zgen"], params),
        )
    if entry.table == "T4.8":
        aux["norm"] = _instantiate_norm(entry.aux["norm"], params)
        aux["mods"] = tuple((_module_dim(terms, aux["norm"][0]), zexp)
                            for zexp, terms in entry.aux["mods"])
        aux["ideals"] = tuple((seq, all(exprs.check_relation(c, params) for c in conds))
                              for seq, conds in entry.aux["ideals"])
        aux["exhaustive"] = entry.aux.get("exhaustive", True)
    return RowInstance(entry, dict(params), g_types, tuple(items), gens, aux)


def solve_alpha(inst: RowInstance) -> Vector:
    """Coefficients of a T1.6 instance's duality functional on its factor's
    fundamental-weight coordinates.

    The functional is pinned by vanishing on the saturated space and taking
    the stored value at the stored weight; coefficients are restricted to
    the pivot coordinates of the span of both, so the solution is unique and
    deterministic.
    """
    lam = inst.aux["lam"]
    _, pivots = rref([*inst.aux["sat"].basis, lam], inst.ambient)
    eqs = [[b[p] for p in pivots] + [Fraction(0)] for b in inst.aux["sat"].basis]
    eqs.append([lam[p] for p in pivots] + [Fraction(inst.aux["alpha_value"])])
    red, piv = rref(eqs, len(pivots) + 1)
    if len(pivots) in piv:
        raise ContractError("duality weight lies in the saturated space; functional unsolvable")
    coeffs = [Fraction(0)] * inst.ambient
    for r, pc in enumerate(piv):
        coeffs[pivots[pc]] = red[r][-1]
    return tuple(coeffs)


# --- normalizer factors and module summands (T4.8) -------------------------

@dataclass(frozen=True)
class NormFactor:
    base: str          # 'sl' | 'so' | 'sp' | exceptional name
    size: int | None   # matrix size for the classical bases

    @property
    def dim(self) -> int:
        if self.size is not None:
            return size_dim(self.base, self.size)
        return algebra(self.base).dim

    @property
    def tau_dim(self) -> int:
        if self.size is None:
            raise TableFormatError(f"no tautological module size for {self.base!r}")
        return self.size


def _instantiate_norm(patterns, params: dict) -> tuple[tuple[NormFactor, ...], int]:
    """The simple normalizer factors at `params`, and the torus dimension."""
    simple = tuple(NormFactor(tp.base, None if tp.arg is None
                              else exprs.evaluate_int(tp.arg, params))
                   for tp in patterns if tp.base != "Z")
    return simple, sum(tp.base == "Z" for tp in patterns)


def _module_dim(terms, simple: Sequence[NormFactor]) -> int:
    """Dimension of one module summand: the product over its terms."""
    dim = 1
    for kind, factor, hw in terms:
        f = simple[factor - 1]
        if kind in ("tau", "taus"):
            dim *= f.tau_dim
        elif kind in ("w2", "w2s"):
            dim *= f.tau_dim * (f.tau_dim - 1) // 2
        else:
            rs = build_root_system(size_type(f.base, f.size))
            if hw > rs.rank:
                name = f.base if f.size is None else f"{f.base}({f.size})"
                raise TableFormatError(f"module term rep({factor},{hw}) names fundamental "
                                       f"weight {hw} of {name}, which has rank {rs.rank}")
            coeffs = [0] * rs.rank
            coeffs[hw - 1] = 1
            dim *= weyl_dim(rs, coeffs)
    return dim


# ---------------------------------------------------------------------------
# parameter search helpers
# ---------------------------------------------------------------------------

_SERIES_ORDER = ["A", "B", "C", "D", "E", "F", "G"]

# (a, b): the largest argument of a pattern base whose algebra has rank at
# most R is a*R + b, the largest over the series of that name -- sl(R+1),
# so(2R+1), sp(2R); spin is so, and rank forms and X(r) take R
_MAX_SIZE = {name: max((a, b) for other, a, b in CLASSICAL.values() if other == name)
             for name, _, _ in CLASSICAL.values()}
_MAX_SIZE["spin"] = _MAX_SIZE["so"]

# minimal_params looks no higher than this rank
_MINIMAL_RANK = 40


def _top(entry: CatalogEntry, name: str, max_rank: int) -> int:
    """The largest value of a variable at which every argument it occurs
    alone in names an algebra of rank at most max_rank."""
    tops = []
    for base, step, offset in entry.affine_args[name]:
        a, b = _MAX_SIZE.get(base, (1, 0))
        tops.append((a * max_rank + b - offset) // step)
    return min(tops)


def admissible_params(entry: CatalogEntry, max_rank: int):
    """Yield the row's admissible parameter dicts with rk g <= max_rank, in
    lexicographic order.

    Admissible: the constraints hold, the g pattern resolves and no item
    size is negative.  A variable runs from 1 to the largest value at which
    every argument it occurs alone in (checked at load) names an algebra of
    rank <= max_rank; an item's rank is at most its factor's, so no
    admissible dict of small enough rank is left out (`_top`).
    """
    names = entry.variables
    domains = [_SERIES_ORDER if name == "s" else range(1, _top(entry, name, max_rank) + 1)
               for name in names]
    for combo in itertools.product(*domains):
        params = dict(zip(names, combo))
        try:
            if (entry.violated(params) is not None
                    or sum(tp.resolve(params).rank for tp in entry.g_pattern) > max_rank
                    or any(ip.arg is not None and exprs.evaluate_int(ip.arg, params) < 0
                           for ip in entry.h_pattern)):
                continue
        except (ConstraintError, TableFormatError):
            continue
        yield params


def minimal_params(entry: CatalogEntry) -> dict:
    """The admissible parameters of least rk g, the lexicographically first
    of that rank."""
    for max_rank in range(_MINIMAL_RANK + 1):
        for params in admissible_params(entry, max_rank):
            return params
    raise ConstraintError(
        f"{entry.row_id} has no admissible parameters up to rank {_MINIMAL_RANK}")


def shifted_params(entry: CatalogEntry, base: dict, delta: int = 2) -> dict:
    """`base` with every numeric value raised by delta, when the constraints
    still hold and g still resolves there; else `base`."""
    shifted = {k: (v if isinstance(v, str) else v + delta) for k, v in base.items()}
    try:
        entry.check_constraints(shifted)
        for tp in entry.g_pattern:
            tp.resolve(shifted)
        return shifted
    except (ConstraintError, TableFormatError):
        return base


def sample_params(entry: CatalogEntry) -> list[dict]:
    """The parameters `verify` checks a row at: every rank up to 12 of a
    T3.2 series, else the minimal ones (ConstraintError when there are none)
    and the shifted ones when they differ."""
    if entry.table == "T3.2":
        return list(admissible_params(entry, 12))
    base = minimal_params(entry)
    shifted = shifted_params(entry, base)
    return [base] if shifted == base else [base, shifted]


# ---------------------------------------------------------------------------
# self-verification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Check:
    name: str
    passed: bool
    detail: str

    def __str__(self) -> str:
        mark = "pass" if self.passed else "FAIL"
        return f"[{mark}] {self.name}: {self.detail}"


def verify_entry(entry: CatalogEntry, params: dict) -> list[Check]:
    """Consistency checks for one row at concrete parameters.

    Failures are reported, not raised: a CartanError met while the row
    instantiates or while a check runs ends the list with one failed check
    that names the row and the parameters.
    """
    checks: list[Check] = []
    step = "instantiates"
    try:
        inst = instantiate(entry, params)
        step = "runs its checks"

        if entry.table == "T1.4":
            distinct = sorted(set(inst.gens))
            spanned = span(distinct, inst.ambient)
            ok = spanned.dim == len(distinct)
            checks.append(Check(
                f"{entry.row_id} generators-independent at {params}",
                ok, f"{len(distinct)} generators span dimension {spanned.dim}"))

        if entry.table == "T3.2":
            rs = build_root_system(inst.g_types[0])
            want = exprs.evaluate_int(entry.aux["kform"], params)
            got = rs.k
            checks.append(Check(
                f"{entry.row_id} long-root pairing sum at rank {rs.rank}",
                got == want, f"enumeration {got}, closed form {want}"))

        if entry.table == "T3.4":
            idx = dynkin_index_of(inst.items[0], list(inst.g_types))
            checks.append(Check(
                f"{entry.row_id} unit-index at {params}", idx == 1, f"index {idx}"))

        if entry.table in ("T3.6", "T3.7"):
            idx = dynkin_index_of(inst.items[0], list(inst.g_types))
            l = module_index_complement_types(inst.g_types[0], inst.items[0], idx)
            if entry.table == "T3.6":
                ok, want = l < 1, "< 1"
            else:
                ok, want = l == 1, "= 1"
            checks.append(Check(
                f"{entry.row_id} complement-index {want} at {params}",
                ok, f"index {l}"))

        if entry.table == "T4.8":
            simple, torus = inst.aux["norm"]
            dim_norm = sum(f.dim for f in simple) + torus
            dim_mods = sum(d for d, _ in inst.aux["mods"])
            dim_g = inst.g_types[0].dim
            checks.append(Check(
                f"{entry.row_id} dimension-bookkeeping at {params}",
                dim_g == dim_norm + dim_mods,
                f"dim g = {dim_g}, normalizer {dim_norm} + modules {dim_mods}"))

        if entry.table == "T1.6":
            full = get_catalog().bare_space(inst.g_types[0], inst.items)
            sat: RationalSubspace = inst.aux["sat"]
            lam = inst.aux["lam"]
            checks.append(Check(
                f"{entry.row_id} saturated-inside-full-codim-1 at {params}",
                full.contains(sat) and full.dim == sat.dim + 1,
                f"dims {sat.dim} inside {full.dim}"))
            checks.append(Check(
                f"{entry.row_id} duality-weight-separates at {params}",
                member(full, lam) and not member(sat, lam),
                "weight lies in the full space but not the saturated one"))
            # the duality functional solves, vanishes on the saturated space
            # and takes the stored value at the stored weight
            fn = solve_alpha(inst)
            ann = all(dot(fn, b) == 0 for b in sat.basis)
            checks.append(Check(
                f"{entry.row_id} duality-functional contract at {params}",
                ann and dot(fn, lam) == inst.aux["alpha_value"],
                f"value {dot(fn, lam)} at the stored weight, annihilates saturated: {ann}"))
    except CartanError as exc:
        checks.append(Check(f"{entry.row_id} {step} at {params}", False, str(exc)))
    return checks
