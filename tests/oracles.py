"""Scalar reference code that only the tests call.

The float and exact decagon membership tests, the closed-form line
membership, the inverse of ``cyclo_from_omega`` and the cyclotomic image
of an H2 fragment.  The
package decides all of these on int64 rows; these are the one-value-at-a-time
readings of the same definitions.  ``dominant_rows``, the rule of
``to_dominant`` swept over int64 rows, is the orbit oracle.
"""

import cmath
from dataclasses import dataclass

import numpy as np

from quasih.cutproject import _edge_forms
from quasih.golden import TAU, CycloInt, GoldenInt, xi_pow
from quasih.kernel import apply, golden_sign
from quasih.lineanalysis import _level
from quasih.rootsystem import AlphaVector, GroupId, OmegaVector, cyclo_from_omega, omega_from_alpha


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


def decagon_contains_exact(x: CycloInt, n: int) -> bool:
    """Exact membership for module points (closed decagon)."""
    if n < 1:
        raise ValueError("window radius must be positive")
    return all(w.sign() >= 0 for w in _edge_forms(x, n))


def line_contains(x: GoldenInt, n: int) -> bool:
    """O(1) membership test for the closed form L(n)."""
    return bool(_level(x.a, x.b) <= n)


def omega_from_cyclo(x: CycloInt) -> OmegaVector:
    """Inverse of cyclo_from_omega: with xi = tau*xi^0 + xi^4 the alpha
    coordinates of p + q*xi are (p + tau*q, q)."""
    return omega_from_alpha(AlphaVector(GroupId.H2, (x.p + TAU * x.q, x.q)))


def cyclo_points(fragment) -> tuple[CycloInt, ...]:
    """The points of an H2 fragment as cyclotomic integers, in row order."""
    return tuple(cyclo_from_omega(v) for v in fragment.points)


def dominant_rows(x: np.ndarray, reflections) -> np.ndarray:
    """Reflect each row at its first negative coordinate until every row is
    dominant, the rule of ``rootsystem.to_dominant`` applied to all rows at once."""
    x = x.copy()
    active = np.arange(len(x))
    while active.size:
        sub = x[active]
        neg = golden_sign(sub[:, 0::2], sub[:, 1::2]) < 0
        has = neg.any(axis=1)
        active = active[has]
        first = neg[has].argmax(axis=1)
        for i, op in enumerate(reflections):
            rows = active[first == i]
            if rows.size:
                x[rows] = apply(op, x[rows])
    return x
