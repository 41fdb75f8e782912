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
``decagon_contains`` is a float reference for tests only.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .golden import CycloInt, GoldenInt, xi_pow
from .fragment import Fragment, cached_fragment
from .kernel import ResourceLimitError, box_nonnegative, compile_forms, nonnegative_rows
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


@dataclass(frozen=True)
class CutProjectSet2D:
    n: int
    points: tuple[CycloInt, ...]

    @property
    def size(self) -> int:
        return len(self.points)

    def point_set(self) -> frozenset[CycloInt]:
        return frozenset(self.points)


def _point(coords) -> CycloInt:
    a, b, c, d = coords
    return CycloInt(GoldenInt(a, b), GoldenInt(c, d))


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
    return CutProjectSet2D(n, tuple(_point(r) for r in rows.tolist()))


def deficiencies_2d(n: int) -> tuple[CycloInt, ...]:
    """Cut-and-project points missing from the fragment of the same cut-off."""
    fragment_points = frozenset(cached_fragment(GroupId.H2, n).cyclo_points())
    missing = [x for x in sigma_2d(n).points if x not in fragment_points]
    return tuple(missing)


def fragment_in_window(fragment: Fragment) -> bool:
    """Window containment: every fragment point and its star image lie in
    the decagon window of the fragment's cut-off (trivial at n = 0)."""
    if fragment.n < 1:
        return True
    rows = np.array(
        [(x.p.a, x.p.b, x.q.a, x.q.b) for x in fragment.cyclo_points()], dtype=np.int64
    ).reshape(-1, 4)
    return len(nonnegative_rows(_window_forms(fragment.n), rows)) == len(rows)
