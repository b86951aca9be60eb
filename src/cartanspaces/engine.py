"""Computation of Cartan spaces, rank, essential part, and complexity.

The engine is a certifier: a pair is accepted only when every
indecomposable summand matches an encoded classification row (a semisimple
table row, a central-extension family, or a trivially known case), and the
space is assembled from the stored data.  Anything else is rejected with a
precise reason; nothing is extrapolated.

Pipeline: one pass (`_summands`) splits the pair into its indecomposable
summands and yields each as a standalone pair (the list `decompose`
returns) with the pair's column behind each of its weight coordinates, its
item positions and its central rows.  `_row_answer` computes a summand's
space in its own coordinates from the table rows found for it.  A Table 1.6
summand is cut in the quotient a(g,h)/sat: its space is every saturated
space plus the combinations of the z0 and lam directions that its central
rows annihilate, read off the duality values.  `_assemble` puts each space
into the pair's columns (`_moved`), where the space is the block sum.
`row_result` answers the pair a row instance spells, without a search.

Coordinates: a pair with factors g_1,...,g_f and a c-dimensional central
torus uses ambient Q^(rk g_1 + ... + rk g_f + c).  The first blocks are
fundamental-weight coordinates of the factors (VO numbering), the trailing
block is the character space of the central torus.  Central subspaces of
the subalgebra live in the separate coordinate space
[z(g) coordinates, one coordinate per factor in `ReductivePair.families`].
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import accumulate
from math import lcm
from operator import mul, neg
from typing import Container, Sequence

from .catalog import (
    CatalogEntry,
    HItem,
    ReductivePair,
    RowInstance,
    instantiate,
    match_t14,
    solve_alpha,
)
from .errors import (
    ConstraintError,
    InternalConsistencyError,
    OutsideCatalogError,
)
from .ratlinalg import (
    RationalSubspace,
    Vector,
    combine,
    kernel_basis,
    rref,  # not called here; benchmark/test_benchmark.py looks it up as engine.rref
    span,
)
from .rootsystems import CLASSICAL, build_root_system, cartan_matrix


@dataclass(frozen=True)
class EssentialPart:
    """The retained ideals and central part with the same Cartan space."""

    item_indices: tuple[int, ...]    # positions within the pair's item list
    items: tuple[HItem, ...]
    center_rows: tuple[Vector, ...]  # in the pair's central coordinates

    def describe(self) -> str:
        parts = [it.describe() for it in self.items]
        if self.center_rows:
            parts.append(f"center(dim {len(self.center_rows)})")
        return " + ".join(parts) if parts else "0"


@dataclass(frozen=True)
class CartanResult:
    space: RationalSubspace
    rank: int
    essential: EssentialPart
    complexity: int
    trace: tuple[str, ...]


# ---------------------------------------------------------------------------
# decomposition
# ---------------------------------------------------------------------------

def _summands(pair: ReductivePair):
    """Yield each indecomposable summand of the pair: the standalone pair, the
    pair's column behind each of its weight coordinates, the positions of its
    items in `pair.items` and its central rows in the pair's coordinates."""
    nf = len(pair.factors)
    znode = nf  # single node for the whole central torus
    parent = list(range(nf + 1))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a: int, b: int):
        parent[find(a)] = find(b)

    for item in pair.items:
        for t in item.targets[1:]:
            union(item.targets[0], t)

    rows: tuple[Vector, ...] = pair.center.basis if pair.center else ()
    # the node of each central coordinate: the torus, then each slot's factor
    col_nodes = [znode] * pair.center_dim + list(pair.families if rows else ())
    row_nodes = []
    for row in rows:
        nodes = [col_nodes[j] for j, x in enumerate(row) if x]
        for a in nodes[1:]:
            union(nodes[0], a)
        row_nodes.append(nodes[0])

    # one group per root, in order of the first factor (the bare torus last)
    root = [find(x) for x in range(nf + 1)]
    groups = {r: ([], [], []) for r in root[:nf + (pair.center_dim > 0)]}
    for f in range(nf):
        groups[root[f]][0].append(f)
    for i, item in enumerate(pair.items):
        groups[root[item.targets[0]]][1].append(i)
    for row, x in zip(rows, row_nodes):
        groups[root[x]][2].append(row)
    for r, (fs, its, rs) in groups.items():
        new = {f: k for k, f in enumerate(fs)}
        center_dim = pair.center_dim if r == root[znode] else 0
        items = tuple(replace(pair.items[i], targets=tuple(new[t] for t in pair.items[i].targets))
                      for i in its)
        sub = ReductivePair(tuple(pair.factors[f] for f in fs), center_dim, items,
                            _central_part(pair, rs, new, center_dim))
        cols = [c for f in fs for c in pair.columns(f)]
        cols += range(pair.rank_g, pair.rank_g + center_dim)
        yield sub, cols, its, rs


def _central_part(pair: ReductivePair, rows: Sequence[Vector], factors: Container[int],
                  center_dim: int) -> RationalSubspace | None:
    """The span of central rows of `pair` on its first `center_dim` z(g)
    coordinates and the slots of `factors`, in slot order; None for no rows."""
    if not rows:
        return None
    cols = [*range(center_dim),
            *(pair.center_dim + j for j, f in enumerate(pair.families) if f in factors)]
    return span([[r[c] for c in cols] for r in rows], len(cols))


def decompose(pair: ReductivePair) -> list[ReductivePair]:
    """Split a pair into its indecomposable direct summands."""
    return [sub for sub, *_ in _summands(pair)]


# ---------------------------------------------------------------------------
# per-summand computation
# ---------------------------------------------------------------------------

def _moved(vectors: Sequence[Sequence], cols: Sequence[int], n: int) -> list[Vector]:
    """Each vector with its coordinate j put into column cols[j] of Q^n."""
    out = []
    for b in vectors:
        v = [Fraction(0)] * n
        for c, x in zip(cols, b):
            v[c] = x
        out.append(tuple(v))
    return out


def _row_str(inst: RowInstance) -> str:
    """The row and its parameters, as the trace names them."""
    params = ",".join(f"{k}={v}" for k, v in sorted(inst.params.items()))
    return inst.entry.row_id + (f"({params})" if params else "")


def alpha_functional(entry: CatalogEntry, params: dict, scale=1) -> Vector:
    """A family row's duality covector, scaled; kept for benchmark/tracer.py and the tests."""
    if entry.table != "T1.6":
        raise ConstraintError(f"{entry.row_id} is not a central-extension family row")
    return tuple(Fraction(scale) * c for c in solve_alpha(instantiate(entry, params)))


def _row_answer(sub: ReductivePair, insts: Sequence[RowInstance],
                perm: Sequence[int] = ()) -> tuple[list[Vector], bool, list[str]]:
    """The space of an indecomposable pair from its rows: one T1.4 instance
    whose pattern position p is factor perm[p] of `sub`, or one T1.6 instance
    per factor.  Returns spanning vectors in the pair's own coordinates, whether
    the items are essential (the central rows always are) and the trace."""
    n = sub.weight_ambient
    if insts[0].entry.table == "T1.4":
        inst, = insts
        cols = [c for f in perm for c in sub.columns(f)]
        return _moved(inst.gens, cols, n), True, [_row_str(inst)]
    # one family row per factor, the slots in factor order.  f's duality
    # functional vanishes on sat_f and takes alpha_f at lam_f, and sat_f and
    # lam_f span a(g_f, h_f), so the space is every sat_f plus the z0 and
    # lam_f combinations the central rows annihilate (all of them when bare)
    cd = sub.center_dim
    cut = [[*row[:cd], *(x * inst.aux["alpha_value"] for x, inst in zip(row[cd:], insts))]
           for row in (sub.center.basis if sub.center else ())]
    directions, vectors = _moved(kernel_basis([], cd), range(sub.rank_g, n), n), []
    for f, inst in enumerate(insts):
        directions += _moved([inst.aux["lam"]], sub.columns(f), n)
        vectors += _moved(inst.aux["sat"].basis, sub.columns(f), n)
    vectors += [combine(t, directions, n) for t in kernel_basis(cut, len(directions))]
    if sub.center is None:
        # bare members of central-extension families: the space is the full
        # weight block and the essential part collapses to zero
        return vectors, False, [f"{_row_str(inst)} bare: full block, essential part collapses"
                                for inst in insts]
    return vectors, True, [f"{_row_str(inst)} with central part" for inst in insts]


def _summand_space(sub: ReductivePair,
                   names: Sequence[str]) -> tuple[list[Vector], bool, list[str]]:
    """Find the rows of an indecomposable pair and answer from them.  `names`
    are the items as written in the whole pair, for the refusal texts."""
    # central-torus-only summand
    if not sub.factors:
        rows = list(sub.center.basis) if sub.center else []
        return kernel_basis(rows, sub.weight_ambient), True, ["central-torus block"]

    if sub.center is None:
        if not sub.items:
            return kernel_basis([], sub.weight_ambient), True, [
                "trivial subalgebra in " + "+".join(map(str, sub.factors)) + ": full block"]
        try:
            matched, near_miss = match_t14(list(sub.factors), list(sub.items)), None
        except ConstraintError as exc:
            matched, near_miss = None, str(exc)
        if matched is not None:
            entry, params, factor_map = matched
            return _row_answer(sub, [instantiate(entry, params)], factor_map)
        # fallback: bare members of central-extension families
        if len(sub.families) == len(sub.factors):
            return _row_answer(sub, list(sub.families.values()))
        detail = near_miss or "no classification row matches"
        raise OutsideCatalogError(
            "summand (" + "+".join(map(str, sub.factors))
            + " / " + (" + ".join(names) or "0")
            + f") is outside the encoded tables: {detail}")

    # central rows touch only z(g) and factors with a family row, and those
    # meet no cross-factor item, so every factor of this summand has one
    return _row_answer(sub, list(sub.families.values()))


# ---------------------------------------------------------------------------
# public pipeline
# ---------------------------------------------------------------------------

def _assemble(pair: ReductivePair) -> tuple[list[Vector], EssentialPart, list[str]]:
    """Every summand's vectors, the joined essential part and the trace."""
    vectors: list[Vector] = []
    indices: list[int] = []
    rows: list[Vector] = []
    trace: list[str] = []
    for sub, cols, item_indices, center_rows in _summands(pair):
        space, keeps_items, lines = _summand_space(
            sub, [pair.items[i].describe() for i in item_indices])
        vectors += _moved(space, cols, pair.weight_ambient)
        if keeps_items:
            indices += item_indices
        rows += center_rows
        trace += lines
    indices.sort()
    ess = EssentialPart(tuple(indices), tuple(pair.items[i] for i in indices), tuple(rows))
    return vectors, ess, trace


def _result(pair: ReductivePair, vectors: list[Vector], ess: EssentialPart,
            trace: list[str]) -> CartanResult:
    space = span(vectors, pair.weight_ambient)
    return CartanResult(space, space.dim, ess, complexity_of_space(pair, space), tuple(trace))


def cartan_space(pair: ReductivePair) -> CartanResult:
    """Compute the Cartan space with rank, essential part, and complexity."""
    return _result(pair, *_assemble(pair))


def row_result(inst: RowInstance) -> CartanResult:
    """The result for `inst.pair`, the indecomposable pair a T1.4 or T1.6 row
    instance spells, answered from the instance without a search; such a row
    keeps every item as essential."""
    pair = inst.pair
    vectors, _, trace = _row_answer(pair, [inst], range(len(pair.factors)))
    ess = EssentialPart(tuple(range(len(pair.items))), pair.items,
                        pair.center.basis if pair.center else ())
    return _result(pair, vectors, ess, trace)


def essential_part(pair: ReductivePair) -> EssentialPart:
    """The maximal ideal of h with the same Cartan space."""
    return _assemble(pair)[1]


def essential_pair(pair: ReductivePair, ess: EssentialPart | None = None) -> ReductivePair:
    """The essential part repackaged as a pair on the same ambient algebra."""
    ess = ess if ess is not None else essential_part(pair)
    items = tuple(pair.items[i] for i in ess.item_indices)
    # a summand keeps all its items or none: a factor with a kept item keeps its slot
    kept = {t for it in items for t in it.targets}
    return ReductivePair(pair.factors, pair.center_dim, items,
                         _central_part(pair, ess.center_rows, kept, pair.center_dim))


def levi_centralizer_dim(pair: ReductivePair, space: RationalSubspace) -> int:
    """Dimension of the centralizer of the space: rank + center + fixed roots.

    A classical factor's roots are e_j - e_k, e_j + e_k, e_j and 2e_j in the
    e-coordinates of Bourbaki's plates I-IV, so a root fixes the space when
    its coordinates j, k carry equal, opposite or zero tuples (x_j over the
    factor's nonzero basis blocks; `_epsilon`).  With m_v coordinates of
    tuple v, e_j - e_k counts sum_v C(m_v, 2), e_j + e_k counts
    (sum_v m_v m_-v - m_0)/2 and e_j or 2e_j counts m_0.  An exceptional
    root sum_i c_i alpha_i fixes the weight sum_i b_i pi_i when
    sum_i c_i b_i |alpha_i|^2 = 0 (see `RootSystem`).
    """
    if space.ambient_dim != pair.weight_ambient:
        raise ConstraintError("space ambient does not match the pair's weight coordinates")
    fixed = 0
    for f, t in enumerate(pair.factors):
        cols = pair.columns(f)
        blocks = []
        for b in space.basis:
            block = b[cols.start: cols.stop]
            if any(block):
                den = lcm(*(x.denominator for x in block))
                blocks.append([x.numerator * (den // x.denominator) for x in block])
        if not blocks:
            fixed += (t.dim - t.rank) // 2
        elif t.series in CLASSICAL:
            m = Counter(zip(*(_epsilon(t.series, u) for u in blocks)))
            fixed += sum(c * (c - 1) // 2 for c in m.values())
            if t.series != "A":
                zero = m[(0,) * len(blocks)]
                fixed += (sum(c * m[tuple(map(neg, v))] for v, c in m.items()) - zero) // 2
                if t.series in "BC":
                    fixed += zero
        else:
            rs = build_root_system(t)
            us = [list(map(mul, u, rs.simple_norms)) for u in blocks]
            fixed += sum(1 for c in rs.positive_coords
                         if not any(sum(map(mul, c, u)) for u in us))
    return pair.rank_g + pair.center_dim + 2 * fixed


def _epsilon(series: str, u: Sequence[int]) -> list[int]:
    """2x the e-coordinates of the weight sum_i u_i pi_i of a classical factor:
    x_j = 2 sum_{i>=j} u_i, less u_l for B and u_{l-1} + u_l for D, whose
    spin weights have halves; A gets the last coordinate 0."""
    shift = {"B": u[-1], "D": sum(u[-2:])}.get(series, 0)
    xs = [2 * s - shift for s in accumulate(reversed(u))][::-1]
    return xs + [0] if series == "A" else xs


def complexity_of_space(pair: ReductivePair, space: RationalSubspace) -> int:
    """Codimension of a generic Borel orbit, from the centralizer dimension.

    Uses c = (dim g + dim L)/2 - dim h - rank with L the centralizer of the
    space (`levi_centralizer_dim`).
    """
    rank = space.dim
    dim_l = levi_centralizer_dim(pair, space)
    two_c = pair.dim_g + dim_l - 2 * pair.dim_h - 2 * rank
    if two_c % 2 != 0:
        raise InternalConsistencyError("half-integral complexity")
    c = two_c // 2
    if c < 0:
        raise InternalConsistencyError(
            f"negative complexity {c}: table data or subalgebra dimension is wrong")
    return c


# ---------------------------------------------------------------------------
# diagram twisting
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Twist:
    """An outer symmetry: a permutation of isomorphic factors composed with
    per-factor diagram symmetries (0-based node permutations)."""

    factor_perm: tuple[int, ...]
    node_perms: tuple[tuple[int, ...], ...]


def _validate_twist(pair: ReductivePair, tw: Twist) -> None:
    nf = len(pair.factors)
    if sorted(tw.factor_perm) != list(range(nf)) or len(tw.node_perms) != nf:
        raise ConstraintError("twist shape does not match the factor list")
    for i, p in enumerate(tw.factor_perm):
        if pair.factors[i] != pair.factors[p]:
            raise ConstraintError(
                f"twist maps factor {pair.factors[i]} onto non-isomorphic {pair.factors[p]}")
        # checked directly: listing every symmetry (`diagram_automorphisms`) is O(l^4)
        perm, t = tw.node_perms[i], pair.factors[i]
        C = cartan_matrix(t)
        if sorted(perm) != list(range(t.rank)) or any(
                C[perm[a]][perm[b]] != C[a][b] for a in range(t.rank) for b in range(t.rank)):
            raise ConstraintError(f"node permutation {perm} is not a diagram symmetry of {t}")


_OUTER_NOTES = (
    ("T1.4:8", {"n": 8, "k": 7}, "full-symmetry class is a union of 3 inner classes"),
    ("T1.4:9", None, "full-symmetry class is a union of 2 inner classes"),
    ("T1.4:25", None,
     "full-symmetry class is a union of as many inner classes as the factor has outer symmetries"),
)


def twist(pair: ReductivePair, tw: Twist) -> CartanResult:
    """The result for the twisted subalgebra: the space moves coordinatewise."""
    _validate_twist(pair, tw)
    base = cartan_space(pair)
    n = pair.weight_ambient
    cols = [pair.columns(p)[i] for p, nodes in zip(tw.factor_perm, tw.node_perms) for i in nodes]
    cols += range(pair.rank_g, n)
    space = span(_moved(base.space.basis, cols, n), n)
    notes = []
    for row_id, params, note in _OUTER_NOTES:
        for entry in base.trace:
            if entry.startswith(row_id + "(") or entry == row_id:
                if params is not None and not all(f"{k}={v}" in entry for k, v in params.items()):
                    continue
                notes.append(f"note: {note}")
    return CartanResult(space, base.rank, base.essential, base.complexity,
                        base.trace + ("twisted",) + tuple(dict.fromkeys(notes)))
