"""Per-layer counts and self times, taken from outside the program.

`Tracer.install` replaces selected public functions of the package's
modules by timing wrappers.  A function is rebound under every name the
package holds it by (``engine`` imports ``rref`` and ``build_root_system``
by name, ``cli`` imports ``instantiate``), so no call slips past the count.
`uninstall` puts the originals back.

``X.self_ms`` is the time inside X minus the time inside wrapped functions
that X called.  Small helpers such as ``ratlinalg.dot`` are not wrapped: a
wrapper per call would cost more than the call, so their time counts to the
wrapped function that called them.
"""

from __future__ import annotations

import functools
import sys
import time

PACKAGE = "cartanspaces"

# layer -> public functions that are timed; the names are the modules of
# the package.  `cli.survey_pairs` is wrapped only to attribute
# instantiations to the survey loop.
LAYERS = {
    "cli": ("parse_pair", "format_pair", "format_vector", "survey_pairs"),
    "catalog": ("get_catalog", "instantiate", "match_t14", "match_row",
                "family_row_for_factor", "verify_entry"),
    "engine": ("cartan_space", "levi_centralizer_dim", "alpha_functional"),
    "rootsystems": ("build_root_system", "k_value", "weyl_dim"),
    "ratlinalg": ("rref", "span", "annihilator_preimage", "kernel_basis"),
    "exprs": ("evaluate", "evaluate_int", "check_relation"),
    "indexes": ("dynkin_index_of", "module_index_complement_types"),
}

# metric names reported per function; every one is in BENCHMARK.json
REPORTED = {
    "engine.levi_centralizer_dim": ("calls", "self_ms"),
    "engine.cartan_space": ("calls", "self_ms"),
    "engine.alpha_functional": ("calls", "self_ms"),
    "rootsystems.build_root_system": ("calls", "self_ms", "hit_ratio"),
    "rootsystems.k_value": ("self_ms",),
    "rootsystems.weyl_dim": ("self_ms",),
    "ratlinalg.rref": ("calls", "self_ms", "cells"),
    "ratlinalg.span": ("self_ms",),
    "ratlinalg.annihilator_preimage": ("self_ms",),
    "ratlinalg.kernel_basis": ("self_ms",),
    "catalog.instantiate": ("calls", "self_ms", "kept_ratio"),
    "catalog.match_t14": ("calls", "self_ms"),
    "catalog.match_row": ("calls", "self_ms", "hit_ratio"),
    "catalog.family_row_for_factor": ("calls", "self_ms"),
    "catalog.verify_entry": ("calls", "self_ms"),
    "indexes.dynkin_index_of": ("self_ms",),
    "indexes.module_index_complement_types": ("self_ms",),
    "catalog.get_catalog": ("self_ms",),
    "exprs.evaluate": ("calls", "self_ms"),
    "exprs.evaluate_int": ("calls", "self_ms"),
    "exprs.check_relation": ("calls", "self_ms"),
    "cli.parse_pair": ("calls", "self_ms"),
    "cli.format_pair": ("self_ms",),
    "cli.format_vector": ("self_ms",),
}


class _Stat:
    __slots__ = ("calls", "self_ns", "hits", "cells", "in_survey")

    def __init__(self):
        self.calls = self.self_ns = self.hits = self.cells = self.in_survey = 0


class Tracer:
    """Wraps the functions in `LAYERS`; counts only between `start` and `stop`."""

    def __init__(self):
        self.enabled = False
        self.stats: dict[str, _Stat] = {}
        self._stack: list[list] = []          # [qualified name, child ns]
        self._originals: list[tuple[object, str, object]] = []
        self._brs = None                      # the cached build_root_system
        self._cache_hits = self._cache_lookups = 0
        self._listed = 0

    def _modules(self):
        return [m for name, m in sorted(sys.modules.items())
                if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]

    def install(self) -> None:
        modules = self._modules()
        for layer, names in LAYERS.items():
            mod = sys.modules[f"{PACKAGE}.{layer}"]
            for name in names:
                original = getattr(mod, name)
                wrapper = self._wrap(f"{layer}.{name}", original)
                for holder in modules:
                    for attr, value in list(vars(holder).items()):
                        if value is original:
                            self._originals.append((holder, attr, original))
                            setattr(holder, attr, wrapper)
        self._brs = next(o for h, a, o in self._originals if a == "build_root_system")

    def start(self) -> None:
        info = self._brs.cache_info()
        self._cache_hits -= info.hits
        self._cache_lookups -= info.hits + info.misses
        self.enabled = True

    def stop(self) -> None:
        self.enabled = False
        info = self._brs.cache_info()
        self._cache_hits += info.hits
        self._cache_lookups += info.hits + info.misses

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._originals):
            setattr(holder, attr, original)
        self._originals.clear()

    def wrapped_names(self) -> set[tuple[str, str]]:
        """(module, attribute) pairs currently bound to a wrapper."""
        return {(h.__name__, a) for h, a, _ in self._originals}

    def _wrap(self, qualname: str, fn):
        stat = self.stats.setdefault(qualname, _Stat())
        stack = self._stack
        clock = time.perf_counter_ns
        tracer = self
        in_survey_loop = qualname == "catalog.instantiate"
        is_rref = qualname == "ratlinalg.rref"
        is_match_row = qualname == "catalog.match_row"
        is_survey = qualname == "cli.survey_pairs"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            stat.calls += 1
            if is_rref:
                stat.cells += len(args[0]) * args[1]
            if in_survey_loop and stack and stack[-1][0] == "cli.survey_pairs":
                stat.in_survey += 1
            frame = [qualname, 0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                stat.self_ns += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
            if is_match_row and result is not None:
                stat.hits += 1
            if is_survey:
                tracer._listed += len(result)
            return result

        return wrapper

    def metrics(self) -> dict[str, float]:
        """Every metric in `REPORTED`, by its name in BENCHMARK.json."""
        out: dict[str, float] = {}
        for qualname, kinds in REPORTED.items():
            st = self.stats[qualname]
            for kind in kinds:
                if kind == "calls":
                    value = st.calls
                elif kind == "self_ms":
                    value = st.self_ns / 1e6
                elif kind == "cells":
                    value = st.cells
                elif kind == "kept_ratio":
                    value = _ratio(self._listed, st.in_survey)
                elif qualname == "rootsystems.build_root_system":
                    value = _ratio(self._cache_hits, self._cache_lookups)
                else:
                    value = _ratio(st.hits, st.calls)
                out[f"{qualname}.{kind}"] = value
        return out


def _ratio(num: int, den: int) -> float:
    """num / den, and 0 when nothing was attempted."""
    return num / den if den else 0.0
