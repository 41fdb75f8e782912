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
Point sets are (N, 4) int64 rows (p.a, p.b, q.a, q.b), compared as packed
keys; ``CycloInt`` values are built only where they are read.
``decagon_contains`` is a float reference for tests only.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .golden import _XI_COMPLEX, PHI, CycloInt, GoldenInt, bilinear_forms, xi_pow
from .fragment import Fragment, cached_fragment
from .kernel import (
    ResourceLimitError,
    _absmax,
    _require,
    box_nonnegative,
    compile_forms,
    cyclo_rows,
    exact_argmin,
    isin_sorted,
    nonnegative_rows,
    pack_rows,
)
from .rootsystem import GroupId

DEFAULT_BOX_CAP = 10_000_000


@dataclass(frozen=True)
class DecagonWindow:
    """Regular decagon of circumradius n with vertices on the root rays."""

    n: int

    def vertices(self) -> tuple[CycloInt, ...]:
        return tuple(xi_pow(j) * self.n for j in range(10))

    def vertices_complex(self) -> tuple[complex, ...]:
        """The vertices n*exp(i*pi*j/5) as floats, for ``decagon_contains``."""
        return tuple(cmath.rect(self.n, cmath.pi * j / 5) for j in range(10))


def decagon_contains(p: complex, n: int, tol: float = 1e-9) -> bool:
    """Float half-plane test; boundary counts as inside within tol."""
    if n < 1:
        raise ValueError("window radius must be positive")
    verts = DecagonWindow(n).vertices_complex()
    for j in range(10):
        a = verts[j]
        b = verts[(j + 1) % 10]
        edge = b - a
        rel = p - a
        cross = edge.real * rel.imag - edge.imag * rel.real
        if cross < -tol * abs(edge):
            return False
    return True


def _edge_forms(x: CycloInt, n: int) -> tuple[GoldenInt, ...]:
    """The ten edge forms of D(n) at x, each >= 0 exactly on the inner side.

    The edge cross product Im(conj(V_{j+1}-V_j)*(x-V_j)) with the positive
    factor n dropped is the xi-coefficient of
    xi^(-j) * (xi^9 - 1) * (x - n*xi^j), which is Z[tau]-linear in x.
    """
    edge_conj = xi_pow(9) - xi_pow(0)
    return tuple((xi_pow(-j) * edge_conj * (x - xi_pow(j) * n)).q for j in range(10))


def decagon_contains_exact(x: CycloInt, n: int) -> bool:
    """Exact membership for module points (closed decagon)."""
    if n < 1:
        raise ValueError("window radius must be positive")
    return all(w.sign() >= 0 for w in _edge_forms(x, n))


@dataclass(frozen=True, eq=False)
class CutProjectSet2D:
    """The members as read-only (N, 4) int64 rows (p.a, p.b, q.a, q.b) in
    ``CycloInt.sort_key`` order; ``points`` is built on first access only."""

    n: int
    rows: np.ndarray

    @cached_property
    def points(self) -> tuple[CycloInt, ...]:
        return tuple(_point(r) for r in self.rows.tolist())

    @property
    def size(self) -> int:
        return len(self.rows)

    def point_set(self) -> frozenset[CycloInt]:
        return frozenset(self.points)


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
def sigma_2d(n: int, box_cap: int = DEFAULT_BOX_CAP) -> CutProjectSet2D:
    """Sigma(D(n)) intersected with D(n): both x and star(x) in the window.

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
    parts are -p*sin36 and, under star (xi^9 -> xi^3), p'*sin72.  Results
    are memoized; a set is immutable.
    """
    if n < 1:
        raise ValueError("window radius must be positive")
    bound = 5 * n // 4 + 1
    volume = (2 * bound + 1) ** 4
    if volume > box_cap:
        raise ResourceLimitError(f"enumeration box of {volume} points exceeds cap")
    rows = box_nonnegative(bound, 4, _window_forms(n))
    rows.setflags(write=False)
    return CutProjectSet2D(n, rows)


def deficiency_rows_2d(n: int) -> np.ndarray:
    """The rows of the cut-and-project points missing from the fragment of
    the same cut-off, in sigma order: a set difference of packed row keys."""
    rows = sigma_2d(n).rows
    fragment_keys = np.sort(pack_rows(cyclo_rows(cached_fragment(GroupId.H2, n).rows())))
    return rows[~isin_sorted(pack_rows(rows), fragment_keys)]


def deficiencies_2d(n: int) -> tuple[CycloInt, ...]:
    """The points of ``deficiency_rows_2d`` as ``CycloInt`` values."""
    return tuple(_point(r) for r in deficiency_rows_2d(n).tolist())


def fragment_in_window(fragment: Fragment) -> bool:
    """Window containment: every fragment point and its star image lie in
    the decagon window of the fragment's cut-off (trivial at n = 0)."""
    if fragment.n < 1:
        return True
    rows = cyclo_rows(fragment.rows())
    return len(nonnegative_rows(_window_forms(fragment.n), rows)) == len(rows)


# Rows per slab of pairs in ``min_distance_2d``: a slab's pairs are two
# int64 blocks of _PAIR_SLAB * N entries, 1 MB at the 1,991 points of
# Sigma(D(5)).
_PAIR_SLAB = 32


def min_distance_2d(rows: np.ndarray) -> tuple[GoldenInt, float]:
    """The exact least squared distance over all pairs of the distinct
    module points (p.a, p.b, q.a, q.b) ``rows``, and the smallest float
    distance |x.embed() - y.embed()| among the pairs at that minimum.

    |x - y|^2 = |x|^2 + |y|^2 - (x*conj(y) + conj(x)*y) is an element of
    Z[tau]; ``bilinear_forms`` reads the cross term off ``CycloInt`` as an
    integer pair.  Rows i of one slab of ``_PAIR_SLAB`` are paired with
    every row j > i, and ``exact_argmin`` finds each slab's exact minimum,
    then the least of those.  Every value stays below 2^29 in absolute value, checked up
    front, so the int64 products cannot wrap.
    """
    if len(rows) < 2:
        raise ValueError("need at least two points for a distance")
    # a pair difference has coefficients of at most 2m, and its squared
    # distance at most 12 (2m)^2 per coefficient; certification subtracts two
    m = _absmax(rows)
    _require(96 * m * m, 1 << 29, "squared distance")

    def cross(x, y):
        z = _point(x) * _point(y).complex_conj()
        return (z + z.complex_conj()).p

    g0, g1 = bilinear_forms(cross, 4)
    norm0 = ((rows @ g0) * rows).sum(axis=1) // 2
    norm1 = ((rows @ g1) * rows).sum(axis=1) // 2
    z = rows[:, 0] + rows[:, 1] * PHI + (rows[:, 2] + rows[:, 3] * PHI) * _XI_COMPLEX
    best = []
    for lo in range(0, len(rows) - 1, _PAIR_SLAB):
        x, rest = rows[lo:lo + _PAIR_SLAB], rows[lo:].T
        size = len(x)
        # column c of a block is row lo + c; the pairs are the strict upper
        # triangle of its leading square and every column after it.  The
        # minimum is not 0, so no diagonal entry ties with it, and a tie
        # below the diagonal repeats a pair of the same slab.
        upper = np.triu(np.ones((size, size), dtype=bool), 1)
        block0 = norm0[lo:lo + size, None] + norm0[lo:] - (x @ g0) @ rest
        block1 = norm1[lo:lo + size, None] + norm1[lo:] - (x @ g1) @ rest
        a, b = (np.concatenate([q[:, :size][upper], q[:, size:].ravel()]) for q in (block0, block1))
        k = exact_argmin(a, b)
        i, j = np.nonzero((block0 == a[k]) & (block1 == b[k]))
        # np.hypot rounds as abs() of a Python complex does
        d = z[lo + i] - z[lo + j]
        best.append((a[k], b[k], np.hypot(d.real, d.imag).min()))
    a, b, dist = (np.array(column) for column in zip(*best))
    k = exact_argmin(a, b)
    return GoldenInt(int(a[k]), int(b[k])), float(dist[(a == a[k]) & (b == b[k])].min())
