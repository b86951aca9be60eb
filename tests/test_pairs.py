"""The pair grammar against the parser it replaced, under a seeded fuzzer.

`ReferenceParser` below is the pair parser as it stood before the grammar
moved to `cartanspaces.pairs` (one regex search per call site, offsets
recovered with `str.find`).  It builds pairs from the same `catalog`, so
both parsers must accept and refuse the same texts and build equal pairs;
only their messages may differ.  The fuzzer mutates the survey pairs and
one text per production with deletions, insertions, replacements, cut
and pasted slices and pieces of other texts, from a fixed seed and the
standard library only.
"""

import contextlib
import io
import random
import re
import time
from fractions import Fraction

import pytest

from cartanspaces import catalog as cat
from cartanspaces.catalog import HItem, ReductivePair, instantiate
from cartanspaces.cli import cmd_compute, survey_pairs
from cartanspaces.errors import CartanError, ConstraintError, PairSyntaxError
from cartanspaces.pairs import format_pair, parse_pair
from cartanspaces.ratlinalg import RationalSubspace, span
from cartanspaces.rootsystems import AMBIENT_CEILING, SimpleType, sl, so, sp

# --- the reference: the former parser, kept as it was ----------------------

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


class ReferenceParser:
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
        slots = tuple(pair.families)
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


# --- the fuzzer -------------------------------------------------------------

# one text per production of the grammar
PRODUCTIONS = [
    "sl(6)/sp(6)",                                      # sl/so/sp factor, named item
    "A(5)/C3",                                          # series factor, series item
    "B(4)/D(4)",
    "E6/D5",                                            # exceptional factor
    "F4/B4",
    "G2/sl(3)",
    "E7/e6",
    "E8/E7",
    "so(9)/spin(7)",                                    # spinor item
    "so(8)/g2",                                         # lowercase exceptional items
    "G2/sl2long",
    "sp(6)/so(3)+sp(4)",                                # rank-one items inside sp
    "sl(4)+sp(6)/sp(4) in 1+sl(2) in 2+sl(2) in 2+sl(2) in 2",   # in INT
    "sl(4)+sp(6)/sp(4) in sl(4)",                       # in factor
    "sl(3)+sl(3)/diag(sl(3))",                          # diag
    "sp(4)+sp(4)/diag(sp(4)) in 1,2",
    "sp(6)+sl(2)/sp(4) in 1+bridge in 1,2",             # bridge
    "sl(6)/T1.4:3(n=3)",                                # table references
    "sl(5)/T1.6:1(n=5,k=3)",
    "sp(6)+sp(4)/T1.4:26(n=2,m=3) in 2,1",
    "sl(3)+sl(3)/T1.4:25(s=A,r=2)",
    "sl(5)/sl(3)+z=[pi_v(2)]",                          # central terms
    "sl(7)/sl(4)+sl(3)+z=[-pi_v(3)]",
    "sl(5)+center(1)/sl(3)+z=[z0(1)+3/2*pi_v(2)@1;-2*z0(1)]",
    "sl(5)+sl(5)/sl(3) in 1+sl(3) in 2+z=[pi_v(2)@1;pi_v(2)@2]",
    "center(1)/z=[z0(1)]",                              # central part, no items
    "sl(3)+center(1)/z=[z0(1)]",
]
NEW_REFUSALS = r"(second|zero) central part z=\[\.\.\.\]|'in [^']*' names a factor twice"
ALPHABET = "()[]+/,;*@=-:._ 0123456789abcdeglnoprstvzABCDEFGT\t\n" + "\u0663\u017f\u0130\u00b2"
CHUNKS = [" in ", "sl(", "sp(", "so(", "center(", "z=[", "pi_v(", "z0(", "diag(", "bridge",
          "T1.4:", "T1.6:", "@2", "3/2*", "0*", "1/0*", ",", "+", ";", "/", "9" * 4400]


def _mutate(rng, text, donors):
    for _ in range(rng.choice((1, 1, 2, 3))):
        i = rng.randrange(len(text) + 1)
        j = min(len(text), i + rng.randint(1, 6))
        kind = rng.randrange(8)
        if kind == 0:
            text = text[:i] + text[j:]
        elif kind == 1:
            text = text[:i] + rng.choice(ALPHABET) + text[i:]
        elif kind == 2:
            text = text[:i] + rng.choice(ALPHABET) + text[i + 1:]
        elif kind == 3:
            text = text[:i] + rng.choice(CHUNKS) + text[i:]
        elif kind == 4:
            text = text[:i] + text[i:j] + text[i:]
        elif kind == 5:
            donor = rng.choice(donors)
            k = rng.randrange(len(donor) + 1)
            text = text[:i] + donor[k:k + rng.randint(1, 12)] + text[j:]
        elif kind == 6:
            numbers = list(re.finditer(r"\d+", text))
            if numbers:
                m = rng.choice(numbers)
                text = text[:m.start()] + str(rng.randint(0, 40)) + text[m.end():]
        else:
            text = text[:i] + rng.choice((" ", "  ", "\t")) + text[i:]
    return text


@pytest.fixture(scope="module")
def survey():
    return [pair for _, pair, _ in survey_pairs(8)]


@pytest.fixture(scope="module")
def fuzzed(survey):
    seeds = [format_pair(pair) for pair in survey] + PRODUCTIONS
    rng = random.Random(6)
    return seeds + [_mutate(rng, rng.choice(seeds), seeds) for _ in range(10000)]


def _outcome(parse, text):
    try:
        return parse(text)
    except CartanError:
        return "refused"


def test_productions_parse():
    for text in PRODUCTIONS:
        pair = parse_pair(text)
        assert pair == ReferenceParser(text).parse(), text
        assert parse_pair(format_pair(pair)) == pair, text


def test_survey_pairs_round_trip(survey):
    assert len(survey) == 216
    for pair in survey:
        assert parse_pair(format_pair(pair)) == pair


def test_fuzzed_texts_agree_with_the_reference(fuzzed):
    start = time.process_time()
    accepted = 0
    for text in fuzzed:
        reference = _outcome(lambda t: ReferenceParser(t).parse(), text)
        try:
            new = parse_pair(text)
        except PairSyntaxError as exc:
            assert 0 <= exc.offset <= len(text), (text, exc)
            new = "refused"
            # the refusals the reference lacked: a second central part (it
            # kept the last one), a zero one (it built a 0-dim center, which
            # the pair model now refuses as well) and an 'in' clause naming
            # one factor twice (it built an item the tables never match)
            if reference != "refused" and re.match(NEW_REFUSALS, str(exc)):
                continue
        # anything else, a CartanError included, escapes: the CLI reads it as
        # a table fault, not as an input error
        assert new == reference, text
        if new != "refused":
            accepted += 1
            assert new.weight_ambient <= AMBIENT_CEILING
            assert parse_pair(format_pair(new)) == new, text
    elapsed = time.process_time() - start
    assert 1000 < accepted < len(fuzzed) - 1000, accepted   # both kinds are exercised
    assert elapsed < 3.0, elapsed


def test_zero_subalgebra_has_no_text():
    # `cartan_space` answers such a pair, but no text parses to it, so
    # `format_pair` refuses rather than write one that does not parse back
    for pair, name in [(ReductivePair((sl(3),)), "sl(3)"),
                       (ReductivePair((sl(3),), 1), "sl(3)+center(1)")]:
        with pytest.raises(ConstraintError) as err:
            format_pair(pair)
        assert str(err.value) == f"no pair text for the zero subalgebra of {name}"
    with pytest.raises(PairSyntaxError, match="empty subalgebra part"):
        parse_pair("sl(3)/")
    # with a central part and no items the subalgebra is not zero
    pair = ReductivePair((), 1, (), span([[1]], 1))
    assert parse_pair(format_pair(pair)) == pair


def test_second_or_zero_central_part_is_refused():
    for text, offset, message in [
        ("sl(5)+center(1)/sl(3)+z=[pi_v(2)]+z=[z0(1)]", 34, "second central part"),
        ("sl(5)/sl(3)+z=[0*pi_v(2)]+z=[pi_v(2)]", 26, "second central part"),
        ("sl(5)/sl(3)+z=[0*pi_v(2)]", 12, "zero central part"),
        ("sl(5)+center(1)/sl(3)+ z=[0*z0(1);0*pi_v(2)]", 23, "zero central part"),
    ]:
        with pytest.raises(PairSyntaxError, match=message) as err:
            parse_pair(text)
        assert err.value.offset == offset, text
        assert text[offset:].startswith("z=["), text
        if message == "second central part":
            ReferenceParser(text).parse()     # the former parser accepted it
        else:
            # the former parser built a 0-dim center, which the pair model refuses
            with pytest.raises(ConstraintError, match="zero central part; leave the center out"):
                ReferenceParser(text).parse()


def test_factor_named_twice_is_refused():
    for text, message in [
        ("sp(4)+sp(4)/bridge in 1,1", "'in 1,1' names a factor twice"),
        ("sl(3)+sl(3)/diag(sl(3)) in 1,1", "'in 1,1' names a factor twice"),
        ("sl(3)+sl(3)/diag(sl(3)) in 2, 2", "'in 2, 2' names a factor twice"),
    ]:
        with pytest.raises(PairSyntaxError, match=message) as err:
            parse_pair(text)
        assert err.value.offset == 12, text
        assert re.match(NEW_REFUSALS, str(err.value)), text
        # the former parser built the item, which the engine then refused as
        # outside the tables (exit 2); now the item itself is an input error
        with pytest.raises(ConstraintError):
            ReferenceParser(text).parse()
        assert cmd_compute(text, out=io.StringIO()) == 1


def test_row_parameter_not_in_the_row_or_given_twice_is_refused():
    for text, message in [
        ("sl(5)/T1.4:1(n=5,k=4,j=2)", "T1.4:1 has no parameter 'j'"),
        ("sl(5)/T1.4:1(n=5,k=4,s=B)", "T1.4:1 has no parameter 's'"),
        ("sl(5)/T1.4:1(n=5,k=4,k=3)", "parameter 'k' given twice"),
        # a missing parameter, or a value of the wrong kind, is named as such
        ("sl(4)/T1.4:1(n=4)", "T1.4:1 needs parameter 'k' at offset"),
        ("sl(4)/T1.4:1", "T1.4:1 needs parameters 'k', 'n' at offset"),
        ("sl(4)/T1.4:1(k=x,n=4)", "T1.4:1 parameter 'k' must be a number, not 'x' at offset"),
        ("sl(3)+sl(3)/T1.4:25(r=2)", "T1.4:25 needs parameter 's' at offset"),
        ("sl(3)+sl(3)/T1.4:25(r=2,s=3)",
         "T1.4:25 parameter 's' must be a series letter, not 3 at offset"),
        ("sl(3)+sl(3)/T1.4:25(r=x,s=A)",
         "T1.4:25 parameter 'r' must be a number, not 'x' at offset"),
    ]:
        with pytest.raises(PairSyntaxError, match=message) as err:
            parse_pair(text)
        assert err.value.offset == text.index("T"), text
        # the former parser ignored the extra parameter, or kept the last value
        with contextlib.redirect_stderr(io.StringIO()):
            assert cmd_compute(text, out=io.StringIO()) == 1


def test_compute_exits_0_1_or_2_on_fuzzed_texts(fuzzed):
    rng = random.Random(7)
    codes = set()
    for text in rng.sample(fuzzed, 1000):
        with contextlib.redirect_stderr(io.StringIO()):
            code = cmd_compute(text, out=io.StringIO())
        assert code in (0, 1, 2), text
        codes.add(code)
    assert codes == {0, 1, 2}
