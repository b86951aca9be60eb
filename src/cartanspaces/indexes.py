"""Dynkin indices of catalog embeddings and the complement-module index.

For an embedding of a simple subalgebra the Dynkin index is the ratio of
the normalized invariant forms; it is a positive integer.  For the
embeddings appearing in the classification tables the values are the unit
constants below (all defining/corner-style embeddings, plus the finitely
many exceptional-target rows, which are stored rather than derived from
representation data and are cross-validated by the index partition of the
tables).

The index of the complement module g/h of a simple h in g is
    i(h, g) * k_g / k_h  -  1
with k the long-dual-root norm of the adjoint trace form.  `verify` reads
both: T3.4 rows must have index 1, T3.6 rows a complement index below 1 and
T3.7 rows exactly 1.
"""

from __future__ import annotations

from fractions import Fraction
from typing import TYPE_CHECKING, Sequence

from .errors import ConstraintError
from .rootsystems import CLASSICAL, SimpleType, build_root_system

if TYPE_CHECKING:  # catalog imports this module
    from .catalog import HItem

# Unit-index embeddings by (ambient matrix name, item base); the classical part
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

# Exceptional ambient by name: allowed item bases/sizes, all of index 1.
_EXCEPTIONAL_INDEX = {
    "G2": {("sl", 3), ("sl2long", None)},
    "F4": {("so", 9), ("so", 8), ("so", 7)},
    "E6": {("f4", None), ("so", 10), ("so", 9), ("so", 8), ("sl", 6)},
    "E7": {("e6", None), ("so", 12), ("so", 11), ("f4", None)},
    "E8": {("e7", None)},
}


def dynkin_index_of(item: HItem, g_types: Sequence[SimpleType]) -> int:
    """Dynkin index of a one-factor item into its factor of the ambient."""
    g_type = g_types[item.targets[0]]
    if g_type.series in CLASSICAL:
        key = (CLASSICAL[g_type.series][0], item.base)
        if key in _CLASSICAL_INDEX and (key != ("sp", "sl") or item.size == 2):
            return _CLASSICAL_INDEX[key]
    elif (item.base, item.size) in _EXCEPTIONAL_INDEX[str(g_type)]:
        return 1
    raise ConstraintError(f"unsupported embedding shape: {item.describe()} inside {g_type}")


def module_index_complement_types(g: SimpleType, item: HItem, idx: int) -> Fraction:
    """Index of the complement module g/h for a simple item h of Dynkin index idx in g."""
    return Fraction(idx * build_root_system(g).k, build_root_system(item.simple_type).k) - 1
