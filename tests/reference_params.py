"""The brute-force parameter search that `catalog.admissible_params` replaced,
kept as the reference that the rank-bounded enumerator is checked against:
every variable over 1..bound, every combination checked."""

import itertools

from cartanspaces import exprs
from cartanspaces.catalog import _SERIES_ORDER, CatalogEntry
from cartanspaces.errors import ConstraintError, TableFormatError


def box_admissible_params(entry: CatalogEntry, bound: int = 40):
    """Yield admissible parameter dicts in lexicographic order."""
    names = entry.variables
    domains = [_SERIES_ORDER if name == "s" else range(1, bound + 1) for name in names]
    for combo in itertools.product(*domains):
        params = dict(zip(names, combo))
        try:
            if entry.violated(params) is not None:
                continue
            for tp in entry.g_pattern:
                tp.resolve(params)
            if any(ip.arg is not None and exprs.evaluate_int(ip.arg, params) < 0
                   for ip in entry.h_pattern):
                continue
        except (ConstraintError, TableFormatError):
            continue
        yield params
