"""The pair grammar: text to `ReductivePair` and back.

    pair     := alg "/" sub
    alg      := factor ("+" factor)* ["+" "center(" INT ")"]
    factor   := sl(N) | so(N) | sp(N) | A(R) | B(R) | ... | G(R)
                | G2 | F4 | E6 | E7 | E8
    sub      := item ("+" item)* ["+" "z=[" zrow (";" zrow)* "]"]
    item     := tableref | named ["in" (INT | factor)]
                | "diag(" factor ")" ["in" INT "," INT]
                | "bridge" ["in" INT "," INT]
    tableref := T<table>:<row>["(" name=value ("," name=value)* ")"]
                ["in" INT ("," INT)*]                  e.g.  T1.4:3(n=3)
    named    := sl(K) | so(K) | sp(K) | spin(7) | g2 | f4 | e6 | e7 | sl2long
                | series letter and rank: A3 or A(3), B4 (so(9)), C3, D5 (so(10))
    zrow     := zterm ("+" zterm)*
    zterm    := [RATIONAL "*" | "-"] ( "pi_v(" I ")" ["@" F] | "z0(" J ")" )

Classical names are sizes, not ranks (`rootsystems.CLASSICAL`): `sl(6)` is
the rank-5 algebra.  An item without `in` lives in the only factor (or, for
`diag` and `bridge`, in the only two); `in` names distinct factors by
1-based position, or one factor by its type when that type occurs once.  A
table reference stands for the items of that T1.4 or T1.6 row, on the
factors of the row's types in order unless `in` lists their positions.
`pi_v(I)` is the distinguished central generator of a family item (the
index must match the item's stored generator; `@F` names the factor when
several extend centrally); `z0(J)` is the J-th central coordinate of the
ambient algebra.  A pair has at most one central part, and it is not zero.

Every input error is a `PairSyntaxError` carrying the offset of the piece
at fault.  Besides the rank ceiling of each factor, the weight ambient
(rank of g plus the center) is at most `rootsystems.AMBIENT_CEILING`.
"""

from __future__ import annotations

import re
from fractions import Fraction

from . import catalog as cat
from .catalog import HItem, ReductivePair, instantiate
from .errors import CartanError, ConstraintError, PairSyntaxError
from .ratlinalg import RationalSubspace, span
from .rootsystems import CLASSICAL, SimpleType, algebra

# one pattern per production
_FACTOR = re.compile(r"(sl|so|sp|[A-G])\((\d+)\)|([EFG])(\d)")
_CENTER = re.compile(r"center\((\d+)\)")
_TABLEREF = re.compile(r"(T\d\.\d):(\w+)\s*(?:\((.*)\))?(?:\s+in\s+([\d,\s]+))?")
_ROW_PARAM = re.compile(r"(\w+)\s*=\s*(\w+)")
_IN = re.compile(r"(.*?)\s+in\s+(.*)")
_DIAG = re.compile(r"diag\((.*)\)")
# algebra names in any ASCII case, series letters in capitals only
_NAMED = re.compile(r"((?ai:g2|f4|e6|e7|sl2long))|((?ai:spin|sl|so|sp))\((\d+)\)"
                    r"|([ABCD])(\d+|\(\d+\))")
_ZTERM = re.compile(r"(?:(-?\d+(?:/\d+)?)\s*\*\s*|(-)\s*)?"
                    r"(?:z0\((\d+)\)|pi_v\((\d+)\)(?:@(\d+))?)")


def _pieces(text: str, start: int, end: int, sep: str) -> list[tuple[str, int]]:
    """The stripped pieces of text[start:end] between top-level separators,
    each with the offset of its first character (of its end, when empty)."""
    out = []
    for raw in cat.split_top(text[start:end], sep):
        out.append((raw.strip(), start + len(raw) - len(raw.lstrip())))
        start += len(raw) + 1
    return out


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.factors: list[SimpleType] = []

    def err(self, pos: int, message: str):
        raise PairSyntaxError(f"{message} at offset {pos}: {self.text[pos:pos + 25]!r}", pos)

    def number(self, pos: int, digits: str, kind=int):
        """Every integer and coefficient of the grammar is read here, so that a
        zero denominator or a number too long to convert is an input error."""
        try:
            return kind(digits)
        except ZeroDivisionError:
            self.err(pos, f"zero denominator in coefficient {digits!r}")
        except ValueError:
            self.err(pos, f"number too long to read ({len(digits)} characters)")

    def parse(self) -> ReductivePair:
        text = self.text
        slash = text.find("/")
        if slash < 0:
            self.err(len(text), "missing '/' between algebra and subalgebra")
        center_dim = 0
        for token, at in _pieces(text, 0, slash, "+"):
            m = _CENTER.fullmatch(token)
            if m:
                center_dim += self.number(at, m[1])
            elif token:
                self.factors.append(self.factor(token, at))
            else:
                self.err(at, "empty algebra factor")
        if not self.factors and center_dim == 0:
            self.err(0, "empty algebra")
        if not text[slash + 1:].strip():
            self.err(slash + 1, "empty subalgebra part")
        items, zrows = [], None
        for token, at in _pieces(text, slash + 1, len(text), "+"):
            if not token:
                self.err(at, "empty subalgebra item")
            if not token.startswith("z="):
                items += self.items(token, at)
                continue
            body = token[2:].lstrip()
            if not (body.startswith("[") and body.endswith("]")):
                self.err(at, "central part must be z=[...]")
            if zrows is not None:
                self.err(at, "second central part z=[...]")
            end = at + len(token) - 1
            zrows = (at, end - len(body) + 2, end)
        try:
            pair = ReductivePair(tuple(self.factors), center_dim, tuple(items))
        except ConstraintError as exc:
            self.err(0, str(exc))
        if zrows is None:
            return pair
        center = self.center(pair, *zrows[1:])
        if center.dim == 0:
            self.err(zrows[0], "zero central part z=[...]; leave it out")
        return ReductivePair(pair.factors, center_dim, pair.items, center)

    def factor(self, token: str, at: int) -> SimpleType:
        token = token.strip()
        m = _FACTOR.fullmatch(token)
        if not m:
            self.err(at, f"bad algebra factor {token!r}")
        try:
            return algebra(m[1] or m[3], self.number(at, m[2] or m[4]))
        except ConstraintError as exc:
            self.err(at, str(exc))

    def items(self, token: str, at: int) -> list[HItem]:
        m = _TABLEREF.fullmatch(token)
        if m:
            return self.tableref(m, at)
        m = _IN.fullmatch(token)
        token, sel = (m[1].strip(), m[2]) if m else (token, None)
        m = _DIAG.fullmatch(token)
        if m:
            dtype = self.factor(m[1], at)
            targets = self.targets(sel, at, 2)
            if any(self.factors[t] != dtype for t in targets):
                self.err(at, f"diag({m[1]}) targets non-matching factor")
            return [HItem("diag", None, targets, dtype)]
        if token.lower() == "bridge":
            return [HItem("bridge", None, self.targets(sel, at, 2))]
        m = _NAMED.fullmatch(token)
        if not m:
            self.err(at, f"unknown subalgebra item {token!r}")
        if m[1]:
            base, size = m[1].lower(), None
        elif m[2]:
            base, size = m[2].lower(), self.number(at, m[3])
        else:
            base, step, shift = CLASSICAL[m[4]]
            size = step * self.number(at, m[5].strip("()")) + shift
        target = self.targets(sel, at, 1)
        try:
            return [HItem(*cat.canonical_item_key(base, size, self.factors[target[0]]), target)]
        except ConstraintError as exc:
            self.err(at, str(exc))

    def tableref(self, m: re.Match, at: int) -> list[HItem]:
        table, row, argtext, sel = m.groups()
        if table not in ("T1.4", "T1.6"):
            self.err(at, f"table {table} has no subalgebra rows")
        params: dict = {}
        for piece in filter(None, (p.strip() for p in (argtext or "").split(","))):
            pm = _ROW_PARAM.fullmatch(piece)
            if not pm:
                self.err(at, f"bad row parameter {piece!r}")
            if pm[1] in params:
                self.err(at, f"parameter {pm[1]!r} given twice")
            params[pm[1]] = self.number(at, pm[2]) if pm[2].isdecimal() else pm[2]
        try:
            entry = cat.lookup(table, row)
            for name, value in params.items():
                if name not in entry.variables:
                    raise ConstraintError(f"{entry.row_id} has no parameter {name!r}")
                if (name == "s") != isinstance(value, str):
                    kind = "a series letter" if name == "s" else "a number"
                    raise ConstraintError(f"{entry.row_id} parameter {name!r} must be {kind}, "
                                          f"not {value!r}")
            missing = [name for name in entry.variables if name not in params]
            if missing:
                raise ConstraintError(f"{entry.row_id} needs parameter"
                                      f"{'s' * (len(missing) > 1)} {', '.join(map(repr, missing))}")
            inst = instantiate(entry, params)
        except CartanError as exc:
            self.err(at, str(exc))
        if sel is not None:
            targets = self.targets(sel, at, len(inst.g_types))
        else:
            targets = []
            for t in inst.g_types:
                hits = [i for i, f in enumerate(self.factors) if f == t and i not in targets]
                if not hits:
                    self.err(at, f"no unused factor of type {t} for the row")
                targets.append(hits[0])
        for p, t in enumerate(targets):
            if self.factors[t] != inst.g_types[p]:
                self.err(at, f"{entry.row_id} needs {inst.g_types[p]} at position {p + 1}, "
                             f"factor {t + 1} is {self.factors[t]}")
        return [it.retarget(tuple(targets[p] for p in it.targets)) for it in inst.items]

    def targets(self, sel: str | None, at: int, count: int) -> tuple[int, ...]:
        """The factors an item of `count` targets lives in: those its 'in'
        clause names by position (or, for one target, by a unique type), or
        all of them when there are exactly `count` and no clause."""
        factors = self.factors
        if sel is None:
            if len(factors) != count:
                self.err(at, "item needs an 'in' clause when the algebra has several factors"
                         if count == 1 else
                         "item needs 'in i,j' when the algebra is not a two-factor sum")
            return tuple(range(count))
        sel = sel.strip()
        if count == 1 and not sel.isdecimal():
            t = self.factor(sel, at)
            hits = [i for i, f in enumerate(factors) if f == t]
            if len(hits) != 1:
                self.err(at, f"'in {sel}' does not name a unique factor")
            return (hits[0],)
        parts = [p.strip() for p in sel.split(",")]
        if len(parts) != count or not all(p.isdecimal() for p in parts):
            self.err(at, f"'in {sel}' must name {count} factors by position")
        targets = tuple(self.number(at, p) - 1 for p in parts)
        for t in targets:
            if not 0 <= t < len(factors):
                self.err(at, f"factor {t + 1} does not exist")
        if len(set(targets)) < count:
            self.err(at, f"'in {sel}' names a factor twice")
        return targets

    def center(self, pair: ReductivePair, start: int, end: int) -> RationalSubspace:
        slots = list(pair.families)
        ambient = pair.center_dim + len(slots)
        rows = []
        for row, row_at in _pieces(self.text, start, end, ";"):
            coords = [Fraction(0)] * ambient
            for term, at in _pieces(self.text, row_at, row_at + len(row), "+"):
                m = _ZTERM.fullmatch(term)
                if not m:
                    self.err(at, f"bad central term {term!r}" if term else "empty central term")
                coef = self.number(at, m[1], Fraction) if m[1] else -1 if m[2] else 1
                if m[3] is not None:
                    j = self.number(at, m[3]) - 1
                    if not 0 <= j < pair.center_dim:
                        self.err(at, f"central coordinate z0({j + 1}) does not exist")
                    coords[j] += coef
                    continue
                idx = self.number(at, m[4])
                if m[5] is not None:
                    factor = self.number(at, m[5]) - 1
                elif len(slots) == 1:
                    factor = slots[0]
                else:
                    self.err(at, "pi_v needs an '@factor' qualifier when several factors "
                                 "extend centrally" if slots else
                                 "no factor admits a central extension here")
                if factor not in slots:
                    self.err(at, f"factor {factor + 1} admits no central extension")
                zgen = pair.families[factor].aux["zgen"]
                if zgen != idx:
                    self.err(at, f"pi_v({idx}) is not the central generator on factor "
                                 f"{factor + 1} (expected pi_v({zgen}))")
                coords[pair.center_dim + slots.index(factor)] += coef
            rows.append(tuple(coords))
        return span(rows, ambient)


def parse_pair(text: str) -> ReductivePair:
    """Parse a pair expression; raises PairSyntaxError with a character offset."""
    return _Parser(text).parse()


def format_pair(pair: ReductivePair) -> str:
    """Canonical textual form; parsing it back gives an equal pair.  The
    grammar has no text for the zero subalgebra: ConstraintError."""
    if not pair.items and pair.center is None:
        raise ConstraintError(f"no pair text for the zero subalgebra of {pair.describe_g()}")
    items = []
    for it in pair.items:
        name = it.describe().split("@")[0]
        if len(pair.factors) > 1 or len(it.targets) > 1:
            name += " in " + ",".join(str(t + 1) for t in it.targets)
        items.append(name)
    if pair.center is not None:
        names = ([f"z0({j + 1})" for j in range(pair.center_dim)]
                 + [f"pi_v({inst.aux['zgen']})@{f + 1}" for f, inst in pair.families.items()])
        rows = ("+".join(name if x == 1 else f"{x}*{name}" for name, x in zip(names, row) if x)
                for row in pair.center.basis)
        items.append("z=[" + ";".join(rows) + "]")
    return pair.describe_g() + "/" + "+".join(items)
