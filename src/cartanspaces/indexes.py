"""Dynkin indices of catalog embeddings and the complement-module index.

For an embedding of a simple subalgebra the Dynkin index is the ratio of
the normalized invariant forms; it is a positive integer.  For the
embeddings appearing in the classification tables the values are the unit
constants below (all defining/corner-style embeddings, plus the finitely
many exceptional-target rows, which are stored rather than derived from
representation data and are cross-validated by the index partition of the
tables).  Diagonal embeddings into several factors are handled by
additivity: the index into a direct sum is the sum of the per-factor
indices.

The index of the complement module g/h of a simple h in g is
    i(h, g) * k_g / k_h  -  1
with k the long-dual-root norm of the adjoint trace form; the screening
predicate turns that number into the conservative statements available
about generic stabilizers.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .catalog import HItem, ReductivePair
from .errors import ConstraintError
from .rootsystems import SimpleType, build_root_system, k_value

# Unit-index embeddings by (ambient surface, item base); the classical part
# mirrors table T3.4, the orthogonal trace doubling gives so-in-sl index 2.
_CLASSICAL_INDEX = {
    ("sl", "sl"): 1,
    ("sl", "sp"): 1,
    ("sl", "so"): 2,
    ("so", "so"): 1,
    ("so", "sl"): 1,
    ("so", "sp"): 1,
    ("so", "spin"): 1,
    ("so", "g2"): 1,
    ("sp", "sp"): 1,
    ("sp", "sl"): 1,  # only the two-by-two block, size 2
}

# Exceptional ambient: allowed item bases/sizes, all of index 1.
_EXCEPTIONAL_INDEX = {
    ("G", 2): {("sl", 3), ("sl2long", None)},
    ("F", 4): {("so", 9), ("so", 8), ("so", 7)},
    ("E", 6): {("f4", None), ("so", 10), ("so", 9), ("so", 8), ("sl", 6)},
    ("E", 7): {("e6", None), ("so", 12), ("so", 11), ("f4", None)},
    ("E", 8): {("e7", None)},
}


def _surface(t: SimpleType) -> str:
    return {"A": "sl", "B": "so", "C": "sp", "D": "so"}.get(t.series, t.series)


def per_factor_index(item: HItem, g_type: SimpleType) -> int:
    """Dynkin index of one item into one ambient factor."""
    if item.base in ("diag", "bridge"):
        return 1
    surf = _surface(g_type)
    if surf in ("sl", "so", "sp"):
        key = (surf, item.base)
        if key not in _CLASSICAL_INDEX:
            raise ConstraintError(
                f"unsupported embedding shape: {item.describe()} inside {g_type}")
        if surf == "sp" and item.base == "sl" and item.size != 2:
            raise ConstraintError(
                f"unsupported embedding shape: sl({item.size}) inside {g_type}")
        return _CLASSICAL_INDEX[key]
    allowed = _EXCEPTIONAL_INDEX.get((g_type.series, g_type.rank), set())
    if (item.base, item.size) in allowed or (item.base, None) in allowed and item.size is None:
        return 1
    raise ConstraintError(
        f"unsupported embedding shape: {item.describe()} inside {g_type}")


def dynkin_index_of(item: HItem, g_types: Sequence[SimpleType]) -> int:
    """Dynkin index of an item into its (possibly composite) ambient.

    For diagonal and bridge items the per-factor indices add up.
    """
    total = 0
    for t in item.targets:
        total += per_factor_index(item, g_types[t])
    if total <= 0:
        raise ConstraintError("embedding index must be positive")
    return total


def _k_of_type(t: SimpleType) -> int:
    return k_value(build_root_system(t))


def module_index_complement(g: SimpleType, item: HItem) -> Fraction:
    """Index of the complement module g/h for a simple item h inside g."""
    idx = per_factor_index(item, g)
    return module_index_complement_types(g, item, idx)


def module_index_complement_types(g: SimpleType, item: HItem, idx: int) -> Fraction:
    kg = _k_of_type(g)
    kh = _k_of_type(item.simple_type)
    return Fraction(idx * kg, kh) - 1


@dataclass(frozen=True)
class ScreenVerdict:
    kind: str  # 'possibly-nontrivial' | 'trivial-forced' | 'contained-in-index-1-ideals' | 'unknown'
    detail: str
    index_values: tuple[tuple[str, Fraction], ...] = ()


def screen_nontrivial_ssgp(pair: ReductivePair) -> ScreenVerdict:
    """Conservative generic-stabilizer screening for the module g/h.

    If every simple ideal of h sees a complement index above 1, the generic
    stabilizer is trivial; if all indices are at least 1, it is contained in
    the sum of the ideals with index exactly 1.  Nothing stronger is
    claimed.
    """
    values: list[tuple[str, Fraction]] = []
    for item in pair.items:
        try:
            # the index plus one is additive over the factors the ideal projects into
            l = sum(module_index_complement(pair.factors[t], item) + 1 for t in item.targets) - 1
        except ConstraintError as exc:
            return ScreenVerdict("unknown", f"index not computable for {item.describe()}: {exc}")
        values.append((item.describe(), l))
    if not values:
        return ScreenVerdict("possibly-nontrivial", "no simple ideals to screen", ())
    if all(l > 1 for _, l in values):
        return ScreenVerdict("trivial-forced", "every ideal has complement index above 1", tuple(values))
    if all(l >= 1 for _, l in values):
        ones = [name for name, l in values if l == 1]
        return ScreenVerdict(
            "contained-in-index-1-ideals",
            "generic stabilizer lies in " + " + ".join(ones), tuple(values))
    return ScreenVerdict("possibly-nontrivial", "some ideal has complement index below 1", tuple(values))
