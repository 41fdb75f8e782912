"""One-dimensional sections of the planar fragments and their comparison
with cut-and-project sets.

The real-axis section of the cut-off-n fragment has the closed form

    L(n) = {(a+c) + (b-c)*tau : a, b, c integers, |a| + 2|b| + 2|c| <= n},

which this module enumerates, re-derives by brute force from cyclotomic
root sums, and compares against the 1D cut-and-project set of window
[-n, n], {x in Z[tau] : |x| <= n and |conj(x)| <= n}.  Every set is
returned as read-only (N, 2) int64 rows (a, b) of the distinct values
a + b*tau in ascending order.  Membership and window tests are exact;
floats only propose the sort order and appear in diagnostics.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .fragment import DEFAULT_CAP
from .golden import TAU, GoldenInt, compile_forms, xi_pow
from .kernel import (
    apply,
    box_nonnegative,
    exact_argmin,
    exact_argsort,
    isin_sorted,
    pack_rows,
    root_sums,
    unpack_keys,
)


# Largest n that ``line`` accepts; L(200) holds 50,301 values.
LINE_CAP = 200


# The roots xi^0..xi^9 as (p.a, p.b, q.a, q.b) rows.
_XI_ROWS = np.array([xi_pow(j).sort_key() for j in range(10)], dtype=np.int64)


def _sorted_values(a, b) -> np.ndarray:
    """The read-only (N, 2) rows (a, b) of the distinct values a + b*tau,
    for integer sequences a and b, in ascending order
    (``kernel.exact_argsort``)."""
    rows = np.stack([np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64)], axis=1)
    rows = rows[exact_argsort(rows[:, 0], rows[:, 1])]
    rows.setflags(write=False)
    return rows


@lru_cache(maxsize=None)
def line_closed_form(n: int) -> np.ndarray:
    """L(n) read off the box |u| <= n, |v| <= n // 2, which holds it:
    |a + c| <= n and |b - c| <= n / 2 whenever |a| + 2|b| + 2|c| <= n."""
    if n < 0:
        raise ValueError("cut-off must be non-negative")
    half = n // 2
    u, v = np.indices((2 * n + 1, 2 * half + 1)).reshape(2, -1) - np.array([[n], [half]])
    keep = _level(u, v) <= n
    return _sorted_values(u[keep], v[keep])


def _level(u, v):
    """The least n with u + v*tau in L(n), for integers or integer arrays.

    x = u + v*tau lies in L(n) iff some integer c satisfies
    |u - c| + 2|v + c| + 2|c| <= n; the left side is convex piecewise
    linear in c, so its minimum sits at a breakpoint c in {u, -v, 0}.
    """
    return np.minimum.reduce([abs(u - c) + 2 * abs(v + c) + 2 * abs(c) for c in (u, -v, 0)])


def line_bruteforce(n: int) -> np.ndarray:
    """Independent derivation: the sums of at most n decagonal roots
    xi^0..xi^9 (``kernel.root_sums``) that land exactly on the real axis,
    the rows p + q*xi with q = 0."""
    if n < 0:
        raise ValueError("cut-off must be non-negative")
    rows = unpack_keys(np.concatenate([k for k, _, _ in root_sums(_XI_ROWS, n, DEFAULT_CAP)]), 4)
    real = rows[~rows[:, 2:].any(axis=1)]
    return _sorted_values(real[:, 0], real[:, 1])


def levels(n: int) -> tuple[tuple[int, tuple[GoldenInt, ...]], ...]:
    """Growth levels: level m holds line(m) minus line(m-1), sorted.  The
    sorted L(n) is bucketed by the level of each value in one pass."""
    rows = line_closed_form(n)
    buckets: list[list[GoldenInt]] = [[] for _ in range(n + 1)]
    for (a, b), m in zip(rows.tolist(), _level(*rows.T).tolist()):
        buckets[m].append(GoldenInt(a, b))
    return tuple((m, tuple(bucket)) for m, bucket in enumerate(buckets))


# ---------------------------------------------------------------------------
# 1D cut and project

@lru_cache(maxsize=None)
def sigma_1d(n: int) -> np.ndarray:
    """{x in Z[tau] : |x| <= n and |conj(x)| <= n}, exactly: the
    cut-and-project set of window [-n, n] inside [-n, n].

    x = x1 + x2*tau is scanned over the integer box |x1|, |x2| <= n, and
    the four forms n - x, n + x, n - conj(x), n + conj(x) decide
    membership.  The box holds every member: x2 = (x - conj(x))/sqrt5 and
    x1 = (tau*conj(x) - tau'*x)/sqrt5 obey |x2| <= 2n/sqrt5 and
    |x1| <= (tau + |tau'|)*n/sqrt5 = n.
    """
    if n < 0:
        raise ValueError("window radius must be non-negative")

    def forms(coords):
        x = GoldenInt(*coords)
        return (n - x, n + x, n - x.conj(), n + x.conj())

    rows = box_nonnegative(n, 2, compile_forms(forms, 2))
    return _sorted_values(rows[:, 0], rows[:, 1])


def deficiencies_1d(n: int) -> np.ndarray:
    """Cut-and-project points at window [-n, n] missing from the fragment
    section, in sigma order: a set difference of packed row keys.  Empty
    for n <= 2 and provably nonempty from n = 3 on."""
    rows, section = sigma_1d(n), np.sort(pack_rows(line_closed_form(n)))
    missing = rows[~isin_sorted(pack_rows(rows), section)]
    missing.setflags(write=False)
    return missing


def mn_nn(n: int) -> tuple[int, int]:
    """The bound pair (M_n, N_n): M_n = floor(n/2), and
    N_n = floor((2n-1)/sqrt(5)) computed by integer square comparison."""
    if n < 1:
        raise ValueError("n must be positive")
    x = 2 * n - 1
    return n // 2, math.isqrt(x * x // 5)


# ---------------------------------------------------------------------------
# two-line decomposition of planar points

def two_line_split(n: int) -> tuple[np.ndarray, ...]:
    """Split every fragment point x of level at most n into two
    adjacent-line components, x = (y + z*xi) * xi^sector with y and z on
    level n: read-only int64 (points, sector, y, z, level_y, level_z), the
    points as (p.a, p.b, q.a, q.b) rows of p + q*xi, y and z as (a, b) rows
    of a + b*tau, the rest one value per point.  ``kernel.root_sums`` over
    the roots xi^0..xi^9 gives each point a certificate
    x = sum_j beta_j xi^j, its parent's plus e_j for xi^j or minus e_j for
    xi^(j+5) = -xi^j, with sum |beta_j| its level.  As xi^2 = tau*xi - 1,
    xi^3 = tau*xi - tau and xi^4 = xi - tau, sector 0 reads
    y = (b0 - b2) - (b3 + b4)*tau and z = (b1 + b4) + (b2 + b3)*tau, and
    x*xi^-1 = -x*xi^4 has the certificate (b1, b2, b3, b4, -b0), so sector
    s reads beta shifted s times.  Each point takes the first sector in
    which both ``_level`` values are at most n."""
    levels = root_sums(_XI_ROWS, n, DEFAULT_CAP)
    step = np.concatenate([np.eye(5, dtype=np.int64), -np.eye(5, dtype=np.int64)])
    betas = [np.zeros((1, 5), dtype=np.int64)]
    for _, parent, root in levels[1:]:
        betas.append(betas[-1][parent] + step[root])
    s, j = np.indices((10, 5))
    b0, b1, b2, b3, b4 = np.moveaxis(np.concatenate(betas)[:, (s + j) % 5] * (-1) ** ((s + j) // 5), -1, 0)
    y, z = np.stack([b0 - b2, -(b3 + b4)], axis=-1), np.stack([b1 + b4, b2 + b3], axis=-1)
    level_y, level_z = _level(*np.moveaxis(y, -1, 0)), _level(*np.moveaxis(z, -1, 0))
    fits = (level_y <= n) & (level_z <= n)
    if not fits.any(axis=1).all():
        raise AssertionError(f"a point of level <= {n} splits in no sector")
    at = np.arange(len(fits)), fits.argmax(axis=1)
    points = unpack_keys(np.concatenate([k for k, _, _ in levels]), 4)
    out = points, at[1], y[at], z[at], level_y[at], level_z[at]
    for x in out:
        x.setflags(write=False)
    return out


# ---------------------------------------------------------------------------
# scaling, repetitivity, minimal distances

# Sums per slab of shifted patterns in ``scaling_check``.
_SHIFT_SLAB = 1 << 16


def scaling_check(n: int) -> bool:
    """tau * L(n) lands inside L(2n), and patterns translate: (L(n) + x)
    stays inside L(2n) for every x in L(n).  Membership is ``isin_sorted``
    against the packed row keys of the enumerated L(2n), sorted once; L(n)
    is shifted by a slab of x at a time, so memory stays O(|L(n)|)."""
    target = np.sort(pack_rows(line_closed_form(2 * n)))
    pattern = line_closed_form(n)
    tau = compile_forms(lambda x: (TAU * GoldenInt(*x),), 2)
    if not isin_sorted(pack_rows(apply(tau, pattern)), target).all():
        return False
    step = _SHIFT_SLAB // (len(pattern) + 1) + 1  # at most _SHIFT_SLAB + |L(n)| sums
    for lo in range(0, len(pattern), step):
        shifted = (pattern[lo:lo + step, None] + pattern).reshape(-1, 2)
        if not isin_sorted(pack_rows(shifted), target).all():
            return False
    return True


def _min_gap(rows: np.ndarray) -> GoldenInt:
    """The least difference of neighbours among ascending (a, b) rows."""
    if len(rows) < 2:
        raise ValueError("need at least two points for a gap")
    gap = np.diff(rows, axis=0)
    return GoldenInt(*gap[exact_argmin(gap[:, 0], gap[:, 1])].tolist())


def min_distance_compare(n: int) -> tuple[float, float, bool]:
    """Minimal gaps of the fragment section versus the cut-and-project set;
    the fragment gap may never be the smaller one."""
    if n < 1:
        raise ValueError("n must be positive")
    d_line = _min_gap(line_closed_form(n))
    d_sigma = _min_gap(sigma_1d(n))
    return d_line.embed(), d_sigma.embed(), (d_line - d_sigma).sign() >= 0
