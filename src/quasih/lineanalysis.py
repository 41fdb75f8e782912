"""One-dimensional sections of the planar fragments and their comparison
with cut-and-project sets.

The real-axis section of the cut-off-n fragment has the closed form

    L(n) = {(a+c) + (b-c)*tau : a, b, c integers, |a| + 2|b| + 2|c| <= n},

which this module enumerates, re-derives by brute force from cyclotomic
root sums, and compares against the 1D cut-and-project sets
Sigma(window) = {x in Z[tau] : conj(x) in window}.  Membership and window
tests are exact; floats only ever appear in reported diagnostics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cmp_to_key

from .golden import CycloInt, GoldenInt, TAU, xi_pow
from .kernel import box_nonnegative, compile_forms


def _sorted_values(values) -> tuple[GoldenInt, ...]:
    return tuple(sorted(values, key=cmp_to_key(lambda x, y: (x - y).sign())))


@dataclass(frozen=True)
class LineSet:
    """Sorted real-axis section at cut-off n."""

    n: int
    values: tuple[GoldenInt, ...]

    @property
    def size(self) -> int:
        return len(self.values)

    def value_set(self) -> frozenset[GoldenInt]:
        return frozenset(self.values)


def line_closed_form(n: int) -> LineSet:
    if n < 0:
        raise ValueError("cut-off must be non-negative")
    values: set[GoldenInt] = set()
    half = n // 2
    for a in range(-n, n + 1):
        rest = n - abs(a)
        for b in range(-half, half + 1):
            if 2 * abs(b) > rest:
                continue
            rest_b = rest - 2 * abs(b)
            for c in range(-(rest_b // 2), rest_b // 2 + 1):
                values.add(GoldenInt(a + c, b - c))
    return LineSet(n, _sorted_values(values))


def _level(x: GoldenInt) -> int:
    """The least n with x in L(n).

    x = u + v*tau lies in L(n) iff some integer c satisfies
    |u - c| + 2|v + c| + 2|c| <= n; the left side is convex piecewise
    linear in c, so its minimum sits at a breakpoint c in {u, -v, 0}.
    """
    u, v = x.a, x.b
    return min(abs(u - c) + 2 * abs(v + c) + 2 * abs(c) for c in {u, -v, 0})


def line_contains(x: GoldenInt, n: int) -> bool:
    """O(1) membership test for the closed form."""
    return _level(x) <= n


def line_bruteforce(n: int) -> LineSet:
    """Independent derivation: the sums of at most n decagonal roots found
    by ``rootsum_witnesses`` that land exactly on the real axis."""
    if n < 0:
        raise ValueError("cut-off must be non-negative")
    return LineSet(n, _sorted_values(x.p for x in rootsum_witnesses(n) if x.is_real()))


def levels(n: int) -> tuple[tuple[int, tuple[GoldenInt, ...]], ...]:
    """Growth levels: level m holds line(m) minus line(m-1), sorted.  The
    sorted L(n) is bucketed by the level of each value in one pass."""
    buckets: list[list[GoldenInt]] = [[] for _ in range(n + 1)]
    for x in line_closed_form(n).values:
        buckets[_level(x)].append(x)
    return tuple((m, tuple(bucket)) for m, bucket in enumerate(buckets))


# ---------------------------------------------------------------------------
# 1D cut and project

@dataclass(frozen=True)
class Window1D:
    """Closed interval with exact ring-element endpoints."""

    lo: GoldenInt
    hi: GoldenInt

    @classmethod
    def make(cls, lo: GoldenInt | int, hi: GoldenInt | int) -> Window1D:
        lo = GoldenInt.coerce(lo)
        hi = GoldenInt.coerce(hi)
        if (hi - lo).sign() < 0:
            raise ValueError("empty window")
        return cls(lo, hi)

    @classmethod
    def symmetric(cls, n: GoldenInt | int) -> Window1D:
        n = GoldenInt.coerce(n)
        return cls.make(-n, n)

    def contains(self, x: GoldenInt) -> bool:
        return (x - self.lo).sign() >= 0 and (self.hi - x).sign() >= 0

    def contains_conj(self, x: GoldenInt) -> bool:
        return self.contains(x.conj())


def sigma_1d(window: Window1D, region: Window1D) -> tuple[GoldenInt, ...]:
    """{x in Z[tau] : x in region and conj(x) in window}, exactly.

    x = x1 + x2*tau is scanned over the integer box |x1|, |x2| <= B with B
    the largest |a| + 2|b| of the four endpoints a + b*tau, and the four
    forms x - lo, hi - x (region) and conj(x) - lo, hi - conj(x) (window)
    decide membership.  The box holds every member: an endpoint has
    |a + b*tau| <= B, so |x| and |conj(x)| are at most B, and
    x2 = (x - conj(x))/sqrt5 and
    x1 = (tau*conj(x) - tau'*x)/sqrt5 obey |x2| <= 2B/sqrt5 and
    |x1| <= (tau + |tau'|)*B/sqrt5 = B.
    """
    bound = max(abs(e.a) + 2 * abs(e.b) for e in (region.lo, region.hi, window.lo, window.hi))

    def forms(coords):
        x = GoldenInt(*coords)
        return (x - region.lo, region.hi - x, x.conj() - window.lo, window.hi - x.conj())

    rows = box_nonnegative(bound, 2, compile_forms(forms, 2))
    return _sorted_values(GoldenInt(a, b) for a, b in rows.tolist())


def deficiencies_1d(n: int) -> tuple[GoldenInt, ...]:
    """Cut-and-project points at window [-n, n] missing from the fragment
    section; empty for n <= 2 and provably nonempty from n = 3 on."""
    w = Window1D.symmetric(n)
    sigma = set(sigma_1d(w, w))
    return _sorted_values(sigma - line_closed_form(n).value_set())


def mn_nn(n: int) -> tuple[int, int]:
    """The bound pair (M_n, N_n): M_n = floor(n/2) by parity, and
    N_n = floor((2n-1)/sqrt(5)) computed by integer square comparison."""
    if n < 1:
        raise ValueError("n must be positive")
    m_n = n // 2 if n % 2 == 0 else (n - 1) // 2
    x = 2 * n - 1
    n_n = math.isqrt(x * x // 5)
    return m_n, n_n


# ---------------------------------------------------------------------------
# two-line decomposition of planar points

class DecompositionError(ValueError):
    """No witness satisfied the level bound (impossible for valid input)."""


@dataclass(frozen=True)
class Decomposition:
    y: GoldenInt
    z: GoldenInt
    sector: int
    witness_y: tuple[int, int, int]
    witness_z: tuple[int, int, int]
    cost_y: int
    cost_z: int


def _minimize(cost, breakpoints) -> tuple[int, int]:
    best = None
    for c in sorted(set(breakpoints), key=abs):
        value = cost(c)
        if best is None or value < best[1]:
            best = (c, value)
    return best


def _rotate_witness(witness: tuple[int, ...]) -> tuple[int, ...]:
    # multiplying the point by xi^-1 shifts root indices down; xi^-1 = -xi^4
    b0, b1, b2, b3, b4 = witness
    return (b1, b2, b3, b4, -b0)


def _sector_split(witness, n: int):
    b0, b1, b2, b3, b4 = witness
    u1, w1 = b0 - b2, b3 + b4
    c1, cost1 = _minimize(
        lambda c: abs(u1 - c) + 2 * abs(c - w1) + 2 * abs(c), (0, u1, w1)
    )
    u2, w2 = b1 + b4, -(b2 + b3)
    c2, cost2 = _minimize(
        lambda c: abs(u2 - c) + 2 * abs(c - w2) + 2 * abs(c), (0, u2, w2)
    )
    if cost1 > n or cost2 > n:
        return None
    a1, bb1 = u1 - c1, c1 - w1
    a2, bb2 = u2 - c2, c2 - w2
    y = GoldenInt(a1 + c1, bb1 - c1)
    z = GoldenInt(a2 + c2, bb2 - c2)
    return y, z, (a1, bb1, c1), (a2, bb2, c2), cost1, cost2


def decompose(x: CycloInt, n: int, witness: tuple[int, int, int, int, int]) -> Decomposition:
    """Split a fragment point into two adjacent-line components,
    x = (y + z*xi) * xi^sector with y and the z coefficient both on level n.

    ``witness`` is a root-sum certificate (beta_0..beta_4) over the basis
    xi^0..xi^4 with sum |beta_j| <= n.  Writing xi^2, xi^3, xi^4 in terms
    of xi^0, xi^1 fixes y and z per sector; the free integers c_1, c_2 sit
    at breakpoints of the convex piecewise-linear level costs.  Points in
    the cone between xi^0 and xi^1 split in sector 0; the remaining
    sectors are reached by ten-fold rotation, which permutes certificates
    without changing their root count.
    """
    total = sum(xi_pow(j) * w for j, w in enumerate(witness))
    if total != x:
        raise ValueError("witness does not sum to the given point")
    if sum(abs(b) for b in witness) > n:
        raise ValueError("witness uses more than n roots")

    rotated = witness
    for sector in range(10):
        split = _sector_split(rotated, n)
        if split is not None:
            y, z, wy, wz, cost1, cost2 = split
            return Decomposition(y, z, sector, wy, wz, cost1, cost2)
        rotated = _rotate_witness(rotated)
    raise DecompositionError(f"no sector splits {x} on level {n}")


def rootsum_witnesses(n: int) -> dict[CycloInt, tuple[int, int, int, int, int]]:
    """Every fragment point with one root-sum certificate (beta_0..beta_4).

    Breadth-first over single-root steps; the first certificate found for a
    point uses at most as many roots as its level, hence sum|beta| <= n.
    """
    origin = CycloInt()
    found: dict[CycloInt, tuple[int, int, int, int, int]] = {origin: (0, 0, 0, 0, 0)}
    frontier = [origin]
    for _ in range(n):
        new = []
        for point in frontier:
            beta = found[point]
            for j in range(10):
                q = point + xi_pow(j)
                if q in found:
                    continue
                step = list(beta)
                if j < 5:
                    step[j] += 1
                else:
                    step[j - 5] -= 1
                found[q] = tuple(step)
                new.append(q)
        frontier = new
    return found


# ---------------------------------------------------------------------------
# scaling, repetitivity, minimal distances

def scaling_check(n: int, sample_shift: int | None = None) -> bool:
    """tau * L(n) lands inside L(2n), and patterns translate:
    (L(r) + x) stays inside L(r + s) for every x in L(s)."""
    target = line_closed_form(2 * n).value_set()
    if any(TAU * x not in target for x in line_closed_form(n).values):
        return False
    r = n
    s = n if sample_shift is None else sample_shift
    combined = line_closed_form(r + s).value_set()
    pattern = line_closed_form(r).values
    for x in line_closed_form(s).values:
        if any(p + x not in combined for p in pattern):
            return False
    return True


def _min_gap(values: tuple[GoldenInt, ...]) -> GoldenInt:
    best: GoldenInt | None = None
    for prev, cur in zip(values, values[1:]):
        gap = cur - prev
        if best is None or (gap - best).sign() < 0:
            best = gap
    if best is None:
        raise ValueError("need at least two points for a gap")
    return best


def min_distance_compare(n: int) -> tuple[float, float, bool]:
    """Minimal gaps of the fragment section versus the cut-and-project set;
    the fragment gap may never be the smaller one."""
    if n < 1:
        raise ValueError("n must be positive")
    w = Window1D.symmetric(n)
    d_line = _min_gap(line_closed_form(n).values)
    d_sigma = _min_gap(sigma_1d(w, w))
    return d_line.embed(), d_sigma.embed(), (d_line - d_sigma).sign() >= 0
