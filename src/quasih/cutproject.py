"""Planar cut-and-project sets with decagonal windows.

The module of candidate points is Z[xi] = Z[tau]*1 + Z[tau]*xi; a point is
accepted when it and its star image both lie in the regular decagon D(n)
of circumradius n whose vertices sit at n*xi^j (so the outermost fragment
shell lands exactly on window vertices).  Membership of module points is
decided by exact sign tests of Z[tau]-linear edge forms: for a cyclotomic z
the sign of Im(z) equals the sign of its xi-coefficient.  The same forms
compiled to integer rows decide, with the int64 kernel, a provably
sufficient integer box in ``sigma_2d`` and a fragment's points in
``fragment_in_window``, so no float decides a member or the scan range.
Points are (N, 4) int64 rows (p.a, p.b, q.a, q.b); ``sigma_2d`` returns
their sorted packed keys (``kernel.pack_rows``), as a ``Fragment`` holds
its points, and ``CycloInt`` values are built only where they are read.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .golden import _XI_COMPLEX, PHI, CycloInt, GoldenInt, bilinear_forms, compile_forms, xi_pow
from .fragment import Fragment, cached_fragment
from .kernel import (
    ResourceLimitError,
    _absmax,
    _require,
    box_nonnegative,
    cyclo_rows,
    exact_argmin,
    exact_argsort,
    golden_sign,
    isin_sorted,
    nonnegative_rows,
    pack_rows,
    unpack_keys,
)
from .rootsystem import GroupId

# Largest integer box, in points, that ``sigma_2d`` scans.
BOX_CAP = 10_000_000


def _edge_forms(x: CycloInt, n: int) -> tuple[GoldenInt, ...]:
    """The ten edge forms of D(n) at x, each >= 0 exactly on the inner side.

    The edge cross product Im(conj(V_{j+1}-V_j)*(x-V_j)) with the positive
    factor n dropped is the xi-coefficient of
    xi^(-j) * (xi^9 - 1) * (x - n*xi^j), which is Z[tau]-linear in x.
    """
    edge_conj = xi_pow(9) - xi_pow(0)
    return tuple((xi_pow(-j) * edge_conj * (x - xi_pow(j) * n)).q for j in range(10))


def _point(coords) -> CycloInt:
    a, b, c, d = coords
    return CycloInt(GoldenInt(a, b), GoldenInt(c, d))


@lru_cache(maxsize=None)
def _window_forms(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The twenty edge forms of x and star(x) against D(n), compiled on
    (p.a, p.b, q.a, q.b) rows: all are >= 0 exactly when x and star(x)
    both lie in D(n)."""

    def forms(coords):
        x = _point(coords)
        return _edge_forms(x, n) + _edge_forms(x.star(), n)

    return compile_forms(forms, 4)


@lru_cache(maxsize=None)
def sigma_2d(n: int) -> np.ndarray:
    """Sigma(D(n)) intersected with D(n): both x and star(x) in the window,
    as the sorted, read-only uint64 packed keys of the member rows.

    Points x = p + q*xi are scanned over their coordinates
    (p.a, p.b, q.a, q.b) in the box |x_i| <= 5n//4 + 1, whose lexicographic
    order is ``CycloInt.sort_key`` order; the twenty edge forms of x and
    star(x) decide membership exactly.  The box holds every member: with
    ' the Galois conjugation, Im(x) = q*sin36 and Im(x*) = -q'*sin72, and
    both |x| and |x*| are at most n, so |q| <= n/sin36 and |q'| <= n/sin72.
    From q.b = (q - q')/sqrt5, q.a = (tau*q' - tau'*q)/sqrt5 and
    sin72 = tau*sin36,

        |q.a|, |q.b| <= (1/sin36 + 1/sin72) * n/sqrt5 < 1.232n.

    The same holds for p, read off x*xi^9 = p*xi^9 + q, whose imaginary
    parts are -p*sin36 and, under star (xi^9 -> xi^3), p'*sin72.  The box
    yields rows in lexicographic order, so their keys come out sorted.
    Results are memoized; a set is immutable.
    """
    if n < 1:
        raise ValueError("window radius must be positive")
    bound = 5 * n // 4 + 1
    volume = (2 * bound + 1) ** 4
    if volume > BOX_CAP:
        raise ResourceLimitError(f"enumeration box of {volume} points exceeds cap {BOX_CAP}")
    keys = pack_rows(box_nonnegative(bound, 4, _window_forms(n)))
    keys.setflags(write=False)
    return keys


def deficiency_rows_2d(n: int) -> np.ndarray:
    """The rows of the cut-and-project points missing from the fragment of
    the same cut-off, in sigma order: a set difference of packed row keys."""
    keys = sigma_2d(n)
    fragment_keys = np.sort(pack_rows(cyclo_rows(cached_fragment(GroupId.H2, n).rows())))
    return unpack_keys(keys[~isin_sorted(keys, fragment_keys)], 4)


def deficiencies_2d(n: int) -> tuple[CycloInt, ...]:
    """The points of ``deficiency_rows_2d`` as ``CycloInt`` values."""
    return tuple(_point(r) for r in deficiency_rows_2d(n).tolist())


def fragment_in_window(fragment: Fragment) -> bool:
    """Window containment: every fragment point and its star image lie in
    the decagon window of the fragment's cut-off (trivial at n = 0)."""
    if fragment.group is not GroupId.H2:
        raise ValueError("the decagonal window is an H2 property")
    if fragment.n < 1:
        return True
    rows = cyclo_rows(fragment.rows())
    return len(nonnegative_rows(_window_forms(fragment.n), rows)) == len(rows)


def min_distance_2d(rows: np.ndarray) -> tuple[GoldenInt, float]:
    """The exact least squared distance over all pairs of the distinct
    module points (p.a, p.b, q.a, q.b) ``rows``, and the smallest float
    distance |x.embed() - y.embed()| among the pairs at that minimum.

    |x - y|^2 = |x|^2 + |y|^2 - (x*conj(y) + conj(x)*y) is an element of
    Z[tau]; ``bilinear_forms`` reads the cross term off ``CycloInt`` as an
    integer pair.  The pairs are swept in order of real part: since
    Re(xi) = tau/2, 2*Re(x) = (2p.a + q.b) + (2p.b + q.a + q.b)*tau, and
    ``exact_argsort`` orders its distinct values.  For offsets k = 1, 2, ...
    each row i still active meets row i + k, and ``exact_argmin`` finds the
    least of those pairs; row i retires once (2*dRe)^2 > 4*delta, with dRe
    the real-part gap to row i + k and delta the least value so far, since
    every later partner is at least that far.  The test is strict, so every
    pair tied at the minimum is visited.  Memory is O(N).  Every value
    passed to ``golden_sign`` stays below 2^29 in absolute value, checked
    up front, so the int64 products cannot wrap.
    """
    if len(rows) < 2:
        raise ValueError("need at least two points for a distance")
    # a pair difference has coefficients of at most 2m, and its squared
    # distance at most 12 (2m)^2 = 48m^2 per coefficient; certification
    # subtracts two.  The doubled real-part gap has coefficients of at most
    # 6m and 8m, so its square is at most 160m^2, and the retirement test
    # subtracts 4*delta from it: 160m^2 + 4 * 48m^2 = 352m^2
    m = _absmax(rows)
    _require(352 * m * m, 1 << 29, "squared distance")

    def cross(x, y):
        z = _point(x) * _point(y).complex_conj()
        return (z + z.complex_conj()).p

    re2 = np.stack([2 * rows[:, 0] + rows[:, 3], 2 * rows[:, 1] + rows[:, 2] + rows[:, 3]], axis=1)
    keys, inverse = np.unique(pack_rows(re2), return_inverse=True)
    distinct = unpack_keys(keys, 2)
    rank = np.argsort(exact_argsort(distinct[:, 0], distinct[:, 1]))
    order = np.argsort(rank[inverse], kind="stable")
    rows, re2 = rows[order], re2[order]
    g0, g1 = bilinear_forms(cross, 4)
    cross0, cross1 = rows @ g0, rows @ g1
    norm0 = (cross0 * rows).sum(axis=1) // 2
    norm1 = (cross1 * rows).sum(axis=1) // 2
    z = rows[:, 0] + rows[:, 1] * PHI + (rows[:, 2] + rows[:, 3] * PHI) * _XI_COMPLEX
    best = None
    active = np.arange(len(rows) - 1)
    k = 1
    while active.size:
        j = active + k
        if best is not None:
            ga, gb = (re2[j] - re2[active]).T
            keep = golden_sign(ga * ga + gb * gb - 4 * best[0], (2 * ga + gb) * gb - 4 * best[1]) <= 0
            active, j = active[keep], j[keep]
            if not active.size:
                break
        a = norm0[active] + norm0[j] - (cross0[active] * rows[j]).sum(axis=1)
        b = norm1[active] + norm1[j] - (cross1[active] * rows[j]).sum(axis=1)
        i = exact_argmin(a, b)
        sign = 1 if best is None else int(golden_sign(best[0] - a[i], best[1] - b[i]))
        if sign >= 0:
            tied = (a == a[i]) & (b == b[i])
            # np.hypot rounds as abs() of a Python complex does
            d = z[active[tied]] - z[j[tied]]
            dist = np.hypot(d.real, d.imag).min()
            best = (a[i], b[i], dist if sign > 0 else min(dist, best[2]))
        k += 1
        active = active[active + k < len(rows)]
    return GoldenInt(int(best[0]), int(best[1])), float(best[2])
