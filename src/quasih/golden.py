"""Exact arithmetic in the golden-mean ring and the decagonal cyclotomic module.

``GoldenInt`` models a + b*tau with tau = (1+sqrt(5))/2, reduced with the
defining relation tau^2 = tau + 1.  ``GoldenRational`` adds a positive
integer denominator, which is all the inverse Cartan matrices handled here
ever need.  ``CycloInt`` models p + q*xi with xi = exp(i*pi/5) and
GoldenInt coefficients p, q; multiplication closes because
xi + 1/xi = 2*cos(pi/5) = tau gives the minimal relation xi^2 = tau*xi - 1.

Everything is an immutable value and every operation is a pure function,
so all of it is safe to use from any number of threads.  Python integers
are unbounded, so coefficient growth can never silently wrap.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

PHI = (1.0 + math.sqrt(5.0)) / 2.0
PHI_CONJ = (1.0 - math.sqrt(5.0)) / 2.0

_XI_COMPLEX = cmath.exp(1j * math.pi / 5.0)


def _sign(n: int) -> int:
    return (n > 0) - (n < 0)


def golden_str(a: int, b: int) -> str:
    """The text of a + b*tau, as ``str(GoldenInt(a, b))`` prints it."""
    if b == 0:
        return str(a)
    if b == 1:
        tau = "tau"
    elif b == -1:
        tau = "-tau"
    else:
        tau = f"{b}*tau"
    if a == 0:
        return tau
    return f"{a}+{tau}" if not tau.startswith("-") else f"{a}{tau}"


def cyclo_str(pa: int, pb: int, qa: int, qb: int) -> str:
    """The text of p + q*xi, as ``str(CycloInt(...))`` prints it, from the
    coefficients alone."""
    return f"({golden_str(pa, pb)})+({golden_str(qa, qb)})*xi"


@dataclass(frozen=True)
class GoldenInt:
    """a + b*tau with integer a, b; the scalar type of all coordinates."""

    a: int = 0
    b: int = 0

    @classmethod
    def coerce(cls, x: GoldenInt | int) -> GoldenInt:
        if isinstance(x, GoldenInt):
            return x
        if isinstance(x, int):
            return cls(x, 0)
        raise TypeError(f"cannot coerce {type(x).__name__} to GoldenInt")

    def __add__(self, other: GoldenInt | int) -> GoldenInt:
        if isinstance(other, int):
            return GoldenInt(self.a + other, self.b)
        if isinstance(other, GoldenInt):
            return GoldenInt(self.a + other.a, self.b + other.b)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other: GoldenInt | int) -> GoldenInt:
        if isinstance(other, int):
            other = GoldenInt(other, 0)
        if isinstance(other, GoldenInt):
            return GoldenInt(self.a - other.a, self.b - other.b)
        return NotImplemented

    def __rsub__(self, other: int) -> GoldenInt:
        return (-self) + other

    def __neg__(self) -> GoldenInt:
        return GoldenInt(-self.a, -self.b)

    def __mul__(self, other: GoldenInt | int) -> GoldenInt:
        # (a + b tau)(c + d tau) = ac + bd + (ad + bc + bd) tau
        if isinstance(other, int):
            return GoldenInt(self.a * other, self.b * other)
        if isinstance(other, GoldenInt):
            bd = self.b * other.b
            return GoldenInt(
                self.a * other.a + bd,
                self.a * other.b + self.b * other.a + bd,
            )
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, n: int) -> GoldenInt:
        if n < 0:
            raise ValueError("negative powers leave the ring")
        out = GoldenInt(1, 0)
        for _ in range(n):
            out = out * self
        return out

    def conj(self) -> GoldenInt:
        """Galois conjugate a + b*tau -> a + b*tau' = (a + b) - b*tau."""
        return GoldenInt(self.a + self.b, -self.b)

    def norm(self) -> int:
        """Field norm x * conj(x) = a^2 + a*b - b^2, an ordinary integer."""
        return self.a * self.a + self.a * self.b - self.b * self.b

    def sign(self) -> int:
        """Exact sign of the real number a + b*tau, integer arithmetic only.

        2*(a + b*tau) = s + t*sqrt(5) with s = 2a + b, t = b; when s and t
        disagree in sign the comparison of s^2 against 5*t^2 decides
        (equality is impossible since sqrt(5) is irrational).
        """
        s = 2 * self.a + self.b
        t = self.b
        if t == 0:
            return _sign(s)
        if s == 0:
            return _sign(t)
        if (s > 0) == (t > 0):
            return _sign(s)
        return _sign(s) if s * s > 5 * t * t else _sign(t)

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def embed(self, conjugate: bool = False) -> float:
        """Real value under the identity or the Galois-conjugate embedding."""
        return self.a + self.b * (PHI_CONJ if conjugate else PHI)

    def __lt__(self, other: GoldenInt | int) -> bool:
        return (self - GoldenInt.coerce(other)).sign() < 0

    def __le__(self, other: GoldenInt | int) -> bool:
        return (self - GoldenInt.coerce(other)).sign() <= 0

    def __gt__(self, other: GoldenInt | int) -> bool:
        return (self - GoldenInt.coerce(other)).sign() > 0

    def __ge__(self, other: GoldenInt | int) -> bool:
        return (self - GoldenInt.coerce(other)).sign() >= 0

    def __str__(self) -> str:
        return golden_str(self.a, self.b)

    def __repr__(self) -> str:
        return f"GoldenInt({self.a}, {self.b})"


ZERO = GoldenInt(0, 0)
ONE = GoldenInt(1, 0)
TAU = GoldenInt(0, 1)
TAU_CONJ = GoldenInt(1, -1)
SQRT5 = GoldenInt(-1, 2)


class GoldenRational:
    """GoldenInt numerator over a positive integer denominator, kept reduced."""

    __slots__ = ("num", "den")

    def __init__(self, num: GoldenInt | int, den: int = 1) -> None:
        num = GoldenInt.coerce(num)
        if den == 0:
            raise ZeroDivisionError("zero denominator")
        if den < 0:
            num, den = -num, -den
        g = math.gcd(num.a, num.b, den)
        if g > 1:
            num = GoldenInt(num.a // g, num.b // g)
            den //= g
        self.num = num
        self.den = den

    @classmethod
    def coerce(cls, x: GoldenRational | GoldenInt | int) -> GoldenRational:
        return x if isinstance(x, GoldenRational) else cls(GoldenInt.coerce(x))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (GoldenRational, GoldenInt, int)):
            o = GoldenRational.coerce(other)
            return self.num == o.num and self.den == o.den
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    def __add__(self, other: GoldenRational | GoldenInt | int) -> GoldenRational:
        o = GoldenRational.coerce(other)
        return GoldenRational(self.num * o.den + o.num * self.den, self.den * o.den)

    __radd__ = __add__

    def __sub__(self, other: GoldenRational | GoldenInt | int) -> GoldenRational:
        return self + (-GoldenRational.coerce(other))

    def __rsub__(self, other: GoldenRational | GoldenInt | int) -> GoldenRational:
        return (-self) + other

    def __neg__(self) -> GoldenRational:
        return GoldenRational(-self.num, self.den)

    def __mul__(self, other: GoldenRational | GoldenInt | int) -> GoldenRational:
        o = GoldenRational.coerce(other)
        return GoldenRational(self.num * o.num, self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other: GoldenRational | GoldenInt | int) -> GoldenRational:
        o = GoldenRational.coerce(other)
        if o.num.is_zero():
            raise ZeroDivisionError("division by zero")
        # 1/(n/d) = d*conj(n) / norm(n); norm(n) is an ordinary integer.
        return GoldenRational(self.num * o.num.conj() * o.den, self.den * o.num.norm())

    def sign(self) -> int:
        return self.num.sign()

    def is_integral(self) -> bool:
        return self.den == 1

    def as_golden(self) -> GoldenInt:
        if self.den != 1:
            raise ValueError(f"{self} is not integral")
        return self.num

    def embed(self, conjugate: bool = False) -> float:
        return self.num.embed(conjugate) / self.den

    def __lt__(self, other: GoldenRational | GoldenInt | int) -> bool:
        return (self - GoldenRational.coerce(other)).sign() < 0

    def __le__(self, other: GoldenRational | GoldenInt | int) -> bool:
        return (self - GoldenRational.coerce(other)).sign() <= 0

    def __str__(self) -> str:
        return str(self.num) if self.den == 1 else f"({self.num})/{self.den}"

    def __repr__(self) -> str:
        return f"GoldenRational({self.num!r}, {self.den})"


@dataclass(frozen=True)
class CycloInt:
    """p + q*xi with GoldenInt p, q and xi = exp(i*pi/5)."""

    p: GoldenInt = ZERO
    q: GoldenInt = ZERO

    @classmethod
    def from_golden(cls, x: GoldenInt | int) -> CycloInt:
        return cls(GoldenInt.coerce(x), ZERO)

    def __add__(self, other: CycloInt | GoldenInt | int) -> CycloInt:
        if isinstance(other, (GoldenInt, int)):
            other = CycloInt.from_golden(other)
        if isinstance(other, CycloInt):
            return CycloInt(self.p + other.p, self.q + other.q)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other: CycloInt | GoldenInt | int) -> CycloInt:
        if isinstance(other, (GoldenInt, int)):
            other = CycloInt.from_golden(other)
        if isinstance(other, CycloInt):
            return CycloInt(self.p - other.p, self.q - other.q)
        return NotImplemented

    def __rsub__(self, other: CycloInt | GoldenInt | int) -> CycloInt:
        return (-self) + other

    def __neg__(self) -> CycloInt:
        return CycloInt(-self.p, -self.q)

    def __mul__(self, other: CycloInt | GoldenInt | int) -> CycloInt:
        # xi^2 = tau*xi - 1, hence
        # (p1 + q1 xi)(p2 + q2 xi) = p1 p2 - q1 q2 + (p1 q2 + q1 p2 + tau q1 q2) xi
        if isinstance(other, (GoldenInt, int)):
            g = GoldenInt.coerce(other)
            return CycloInt(self.p * g, self.q * g)
        if isinstance(other, CycloInt):
            qq = self.q * other.q
            return CycloInt(
                self.p * other.p - qq,
                self.p * other.q + self.q * other.p + TAU * qq,
            )
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, n: int) -> CycloInt:
        if n < 0:
            raise ValueError("negative powers leave the module")
        out = CycloInt(ONE, ZERO)
        for _ in range(n):
            out = out * self
        return out

    def star(self) -> CycloInt:
        """The semilinear star map: xi^j -> xi^(7j mod 10), tau -> tau'.

        As a ring map it is determined by xi -> xi^7 = 1 - tau*xi, which
        fixes xi^0, sends xi^4 to xi^8, and conjugates every GoldenInt
        coefficient, so (a*x + y)* = conj(a)*x* + y*.
        """
        pc = self.p.conj()
        qc = self.q.conj()
        return CycloInt(pc + qc, -(TAU * qc))

    def complex_conj(self) -> CycloInt:
        """Complex conjugation, xi -> xi^9 = tau - xi."""
        return CycloInt(self.p + TAU * self.q, -self.q)

    def is_real(self) -> bool:
        """Exact real-axis test via x == complex_conj(x)."""
        return self == self.complex_conj()

    def is_zero(self) -> bool:
        return self.p.is_zero() and self.q.is_zero()

    def embed(self) -> complex:
        return complex(self.p.embed(), 0.0) + self.q.embed() * _XI_COMPLEX

    def sort_key(self) -> tuple[int, int, int, int]:
        return (self.p.a, self.p.b, self.q.a, self.q.b)

    def __str__(self) -> str:
        return cyclo_str(self.p.a, self.p.b, self.q.a, self.q.b)

    def __repr__(self) -> str:
        return f"CycloInt({self.p!r}, {self.q!r})"


XI = CycloInt(ZERO, ONE)

# xi^0 .. xi^9, computed once by exact multiplication.
XI_POW: tuple[CycloInt, ...] = tuple(XI ** j for j in range(10))


def xi_pow(j: int) -> CycloInt:
    return XI_POW[j % 10]


def compile_forms(fn, dims: int) -> tuple[np.ndarray, np.ndarray]:
    """(M, off) of ``fn``, a function of ``dims`` integers returning Z[tau]
    values and integer-affine in its arguments: off is its value at the
    origin and column j of M its change along unit vector j, both on flat
    (a1, b1, ...) rows and read-only, the shape of
    ``AffineOperator.compiled()``."""

    def flat(point):
        return np.array([c for v in fn(point) for c in (v.a, v.b)], dtype=np.int64)

    off = flat((0,) * dims)
    m = np.stack([flat(u) - off for u in np.eye(dims, dtype=int).tolist()], axis=1)
    m.setflags(write=False)
    off.setflags(write=False)
    return m, off


def bilinear_forms(fn, dims: int) -> np.ndarray:
    """Integer matrices (G0, G1), stacked and read-only, with
    fn(x, y) = x G0 y + tau * (x G1 y) for ``fn`` a Z[tau]-valued function
    of two integer ``dims``-vectors that is bilinear in them: entry (i, j)
    is its value at unit vectors i and j."""
    units = np.eye(dims, dtype=int).tolist()
    values = [[fn(x, y) for y in units] for x in units]
    forms = np.array([[[getattr(v, k) for v in row] for row in values] for k in "ab"], dtype=np.int64)
    forms.setflags(write=False)
    return forms
