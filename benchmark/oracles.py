"""Answers worked out apart from the program, used to check its outputs.

Nothing here imports ``cartanspaces``.  Three kinds of reference:

* closed forms for the rank and complexity of every ``ladder`` family;
* a short list of spherical pairs with simple g and their ranks, after
  Kraemer, "Sphaerische Untergruppen in kompakten zusammenhaengenden
  Liegruppen", Compositio Math. 38 (1979), Tabelle 1;
* the row inequalities of the paper's tables T1.4 and T1.6 for the
  families the ``reject`` workload draws from, which give the exit code.

Closed forms.  For a space spanned by fundamental weights with
non-negative coefficients (or by a hyperplane of such a span whose normal
has entries of both signs), a root is fixed by the space exactly when it
lies in the root subsystem spanned by the simple roots outside the support
S of the generators.  So the centralizer L of the space has
dim L = rk g + R, with R the number of roots of the Dynkin diagram with the
nodes of S removed, and

    complexity = (dim g + dim L) / 2 - dim h - rank.

R follows from the types of the components left over: A_m has m(m+1)
roots, B_m and C_m have 2m^2, D_m (m >= 2) has 2m(m-1).  Nodes are
numbered as in the tables (VO numbering; Bourbaki for the classical series).
"""

from __future__ import annotations

import re
from dataclasses import dataclass


def roots_a(m: int) -> int:
    return m * (m + 1) if m > 0 else 0


def roots_bc(m: int) -> int:
    return 2 * m * m if m > 0 else 0


def roots_d_tail(m: int) -> int:
    """Roots on the last m nodes of a D diagram (the fork end)."""
    if m <= 0:
        return 0
    if m == 1:
        return 2          # a single fork node is an A_1
    return 2 * m * (m - 1)


def complexity(dim_g: int, rank_g: int, fixed_roots: int, dim_h: int, rank: int) -> int:
    twice = dim_g + rank_g + fixed_roots
    if twice % 2:
        raise ValueError("odd numerator in the complexity closed form")
    return twice // 2 - dim_h - rank


def dim_sl(n: int) -> int:
    return n * n - 1


def dim_so(n: int) -> int:
    return n * (n - 1) // 2


def dim_sp(n2: int) -> int:
    n = n2 // 2
    return n * (2 * n + 1)


EXCEPTIONAL = {"E6": (78, 6), "E7": (133, 7), "E8": (248, 8)}   # dim, rank


@dataclass(frozen=True)
class Expected:
    rank: int
    complexity: int


# --- ladder families -------------------------------------------------------
# Each takes the family parameters and returns the expected answer.

def sl_sl(n: int, k: int) -> Expected:
    """sl(n)/sl(k), T1.4:1 (2k >= n+2): generators pi_i, pi_{n-i}, i <= n-k."""
    rank = 2 * (n - k)
    fixed = roots_a(2 * k - n - 1)          # nodes n-k+1 .. k-1 stay
    return Expected(rank, complexity(dim_sl(n), n - 1, fixed, dim_sl(k), rank))


def sl_sl_z(n: int, k: int) -> Expected:
    """sl(n)/sl(k)+z, T1.6:1 (n < 2k < 2n): the cut drops one dimension."""
    rank = 2 * (n - k) - 1
    fixed = roots_a(2 * k - n - 1)
    return Expected(rank, complexity(dim_sl(n), n - 1, fixed, dim_sl(k) + 1, rank))


def sl_slsl(n: int, k: int) -> Expected:
    """sl(n)/sl(k)+sl(n-k), T1.4:2 (2k >= n)."""
    rank = n - k + 1 if 2 * k > n else k
    fixed = roots_a(2 * k - n - 1)
    dim_h = dim_sl(k) + dim_sl(n - k)
    return Expected(rank, complexity(dim_sl(n), n - 1, fixed, dim_h, rank))


def sl_sp(m: int) -> Expected:
    """sl(2m)/sp(2m), T1.4:3: generators pi_2, pi_4, ..; the m odd nodes stay."""
    rank = m - 1
    return Expected(rank, complexity(dim_sl(2 * m), 2 * m - 1, 2 * m, dim_sp(2 * m), rank))


def sp_sp(n: int, k: int) -> Expected:
    """sp(2n)/sp(2k), T1.4:4 (2k >= n+1): generators pi_1 .. pi_{2n-2k}."""
    rank = 2 * (n - k)
    fixed = roots_bc(2 * k - n)             # a C tail
    return Expected(rank, complexity(dim_sp(2 * n), n, fixed, dim_sp(2 * k), rank))


def sp_spsp(n: int, k: int) -> Expected:
    """sp(2n)/sp(2k)+sp(2n-2k), T1.4:5 (2k >= n): generators pi_2 .. pi_{2(n-k)}."""
    rank = n - k
    fixed = 2 * (n - k) + roots_bc(2 * k - n)   # isolated odd nodes and a C tail
    dim_h = dim_sp(2 * k) + dim_sp(2 * (n - k))
    return Expected(rank, complexity(dim_sp(2 * n), n, fixed, dim_h, rank))


def so_so(n: int, k: int) -> Expected:
    """so(n)/so(k), T1.4:8 (2k >= n+2): generators pi_1 .. pi_{n-k}."""
    r = n // 2
    rank = n - k
    tail = r - (n - k)
    fixed = roots_bc(tail) if n % 2 else roots_d_tail(tail)
    return Expected(rank, complexity(dim_so(n), r, fixed, dim_so(k), rank))


def so_sl_z(m: int) -> Expected:
    """so(4m+2)/sl(2m+1)+z, T1.6:4: the m odd nodes below the fork stay."""
    rank = m
    return Expected(rank, complexity(dim_so(4 * m + 2), 2 * m + 1, 2 * m,
                                     dim_sl(2 * m + 1) + 1, rank))


def diag(dim_x: int, rank_x: int) -> Expected:
    """X+X/diag(X), T1.4:25: every node is in the support."""
    return Expected(rank_x, complexity(2 * dim_x, 2 * rank_x, 0, dim_x, rank_x))


def exceptional(name: str) -> Expected:
    """E6/D5, E7/e6, E8/e7 (T1.4:19, 22, 24), read in Bourbaki numbering."""
    # generators in Bourbaki labels, and the roots of what is left:
    # E6: {1,2,6} -> A3 on {3,4,5}; E7: {1,6,7} -> D4 on {2,3,4,5};
    # E8: {1,6,7,8} -> D4 on {2,3,4,5}
    g, dim_h, rank, fixed = {
        "E6/D5": ("E6", dim_so(10), 3, roots_a(3)),
        "E7/e6": ("E7", 78, 3, roots_d_tail(4)),
        "E8/e7": ("E8", 133, 4, roots_d_tail(4)),
    }[name]
    dim_g, rank_g = EXCEPTIONAL[g]
    return Expected(rank, complexity(dim_g, rank_g, fixed, dim_h, rank))


# --- pair descriptions -----------------------------------------------------

@dataclass(frozen=True)
class Simple:
    """A pair with a simple ambient algebra, as read off its text form."""

    g: tuple[str, int | None]                 # ('sl', 12), ('E', 6), ...
    items: tuple[tuple[str, int | None], ...]  # sorted (base, size)
    central: bool


_NAMED = re.compile(r"(sl|so|sp|spin)\((\d+)\)$")
_EXC = re.compile(r"([EFG])(\d)$")
_RANK_NAME = re.compile(r"([ABCD])\(?(\d+)\)?$")


def _token(text: str) -> tuple[str, int | None] | None:
    text = text.strip()
    m = _NAMED.match(text)
    if m:
        return m.group(1), int(m.group(2))
    m = _EXC.match(text)
    if m:
        return m.group(1), int(m.group(2))
    m = _RANK_NAME.match(text)
    if m:
        r = int(m.group(2))
        return {"A": ("sl", r + 1), "B": ("so", 2 * r + 1),
                "C": ("sp", 2 * r), "D": ("so", 2 * r)}[m.group(1)]
    if text in ("g2", "f4", "e6", "e7"):
        return text, None
    return None


def parse_simple(text: str) -> Simple | None:
    """Read 'g/item+item[+z=[..]]' when g is one simple factor, else None."""
    gpart, _, hpart = text.partition("/")
    g = _token(gpart)
    if g is None:
        return None
    central = False
    if "+z=[" in hpart:
        hpart = hpart.split("+z=[", 1)[0]
        central = True
    items = []
    for piece in hpart.split("+"):
        piece = piece.split(" in ")[0]
        tok = _token(piece)
        if tok is None:
            return None
        if g[0] == "sp" and tok in (("sl", 2), ("so", 3)):
            tok = ("sp", 2)       # the rank-one block of a symplectic factor
        items.append(tok)
    return Simple(g, tuple(sorted(items, key=lambda t: (t[0], t[1] or 0))), central)


def kraemer_rank(p: Simple) -> int | None:
    """Rank of a spherical pair from the list, or None when it is not listed.

    The trivial pair g/g is not listed: it is spherical of rank 0 by
    definition and is handled by the caller.
    """
    base, n = p.g
    shape = tuple(b for b, _ in p.items)
    sizes = tuple(s for _, s in p.items)
    z = p.central
    if base == "sl":
        if shape == ("sl",) and sizes == (n - 1,):
            return 1 if z else 2                       # GL(n-1), SL(n-1)
        if shape == ("sl", "sl") and sum(sizes) == n:
            a, b = sizes
            if z:
                return min(a, b)                       # S(GL(a) x GL(b))
            return min(a, b) + 1 if a != b else None   # SL(a) x SL(b), a != b
        if shape == ("sp",) and n % 2 == 0 and sizes == (n,) and not z:
            return n // 2 - 1                          # SL(2m)/Sp(2m)
        if shape == ("sp",) and n % 2 == 1 and sizes == (n - 1,):
            return n - 2 if z else n - 1               # SL(2m+1)/Sp(2m) (x C*)
        return None
    if base == "sp":
        if shape == ("sp", "sp") and sum(sizes) == n and not z:
            return min(sizes) // 2                     # Sp(2k) x Sp(2n-2k)
        return None
    if base == "so":
        if shape == ("so",) and sizes == (n - 1,) and not z:
            return 1                                   # SO(n-1)
        if shape == ("sl",) and n % 4 == 2 and sizes == (n // 2,):
            m = (n - 2) // 4
            return m if z else m + 1                   # (G)L(2m+1) in SO(4m+2)
        return {(7, ("g2",), (None,), False): 1,
                (8, ("g2",), (None,), False): 3,
                (9, ("spin",), (7,), False): 2}.get((n, shape, sizes, z))
    return {("G", 2, ("sl",), (3,), False): 1,
            ("F", 4, ("so",), (9,), False): 1,
            ("E", 6, ("f4",), (None,), False): 2,
            ("E", 6, ("so",), (10,), False): 3,
            ("E", 6, ("so",), (10,), True): 2}.get((base, n, shape, sizes, z))


def is_trivial(p: Simple) -> bool:
    """h = g: the pair is spherical of rank 0."""
    return not p.central and p.items == (p.g,)


# --- refusals --------------------------------------------------------------
# Acceptance for the shapes the reject workload uses, from the rows'
# inequalities: the pair is covered when some T1.4 row or a bare T1.6
# family member admits its parameters.

def accepts_sl_sl(n: int, k: int) -> bool:
    t14_1 = n >= 2 and 2 * k >= n + 2 and k <= n
    t16_1 = 2 * k > n and k < n
    return t14_1 or t16_1


def accepts_sp_sp(n: int, k: int) -> bool:
    return n >= 2 and 2 * k >= n + 1 and k <= n          # T1.4:4


def accepts_so_so(n: int, k: int) -> bool:
    return n >= 7 and 2 * k >= n + 2 and k <= n          # T1.4:8


def accepts_sp_bridge(n: int, m: int) -> bool:
    # T1.4:26 up to swapping the two factors
    return (m > n and n >= 2) or (n > m and m >= 2)
