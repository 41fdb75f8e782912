"""Finite quasicrystal fragments grown by the affine-extended groups.

A fragment with cut-off n is the set of images of the origin under words
in the simple reflections and the translation T in which T occurs at most
n times.  Reflections fix the origin, so the set is the union of the
levels

    S_0 = {O},   S_{m+1} = closure(T(S_m)),   fragment = S_0 u ... u S_n,

and since the levels nest two apart that union is S_{n-1} u S_n (see
``generate``).  Each level is W-invariant, so ``generate`` carries only
its dominant rows from level to level and counts every level and union
from the orbit sizes |W|/|W_J| before it expands anything.  Reflecting a
point at its first negative coordinate leads it to its orbit's dominant
row, so each orbit is a tree below that row, walked down once.  The
oracle builds the set as all sums of at most n roots.

A ``Fragment`` stores its points as one read-only array of packed uint64
keys (``kernel.pack_rows``) of the Z[tau] coefficient rows
(a1, b1, ..., ak, bk), with 64 // 2k bits per coefficient (16 for rank 2,
10 for H3, 8 for H4).  Key order is lexicographic row order, and both
constructions give the keys sorted and distinct, so output is
reproducible bit for bit.  ``rows(start, stop)`` unpacks a slab of int64
rows, the only read of a fragment's points.  ``generate`` also keeps the
dominant rows it expanded, one per orbit, in ``dominant``; ``orbits`` and
``shells`` read them, as plain arrays, and never the points: orbit sizes
and squared norms are functions of the dominant rows alone.  A fragment
built any other way carries no rows, and ``orbits`` first proves it
W-invariant.  ``orbit_rows`` expands a few dominant rows into their
orbits: W.t for ``generate``, and the outermost shell for the SVG's
scale.  The expansion and the ten-fold check run on keys and slabs of
rows through ``quasih.kernel``.  A coefficient outside the key range raises
``ResourceLimitError`` instead of wrapping; points of cut-off n have
coefficients of at most 2n in absolute value, far inside the range at any
size the cap admits.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from math import factorial, prod

import numpy as np

from . import kernel
from .golden import XI, CycloInt, GoldenInt, compile_forms
from .kernel import ResourceLimitError
from .rootsystem import GroupId, cartan, golden_det, roots_omega
from .affine import operators

DEFAULT_CAP = 10_000_000

@dataclass(frozen=True, eq=False)
class Fragment:
    """A point set with its cut-off.

    ``keys`` is the read-only uint64 array of packed point keys
    (``kernel.pack_rows``), one per row; ``from_rows`` packs an (N, 2k)
    coefficient array.  ``dominant`` holds the read-only int64 dominant
    rows, one per W-orbit in key order, of a fragment that ``generate``
    made, and is None on any other; no caller can pass it in.
    """

    group: GroupId
    n: int
    keys: np.ndarray
    dominant: np.ndarray | None = field(default=None, init=False, repr=False)

    def __post_init__(self) -> None:
        keys = np.asarray(self.keys).view()
        if keys.dtype != np.uint64 or keys.ndim != 1:
            raise TypeError("Fragment keys are a 1-D uint64 array; Fragment.from_rows packs rows")
        keys.setflags(write=False)
        object.__setattr__(self, "keys", keys)

    @classmethod
    def from_rows(cls, group: GroupId, n: int, coeffs) -> Fragment:
        rows = np.asarray(coeffs)
        cols = 2 * group.rank
        if rows.ndim != 2 or rows.shape[1] != cols or (rows.size and not np.can_cast(rows.dtype, np.int64)):
            raise ValueError(f"{group.value} rows are (N, {cols}) integers, not {rows.dtype} {rows.shape}")
        return cls(group, n, kernel.pack_rows(rows.astype(np.int64)))

    @property
    def size(self) -> int:
        return len(self.keys)

    def rows(self, start: int = 0, stop: int | None = None) -> np.ndarray:
        """The int64 coefficient rows start..stop-1, unpacked from the keys."""
        return kernel.unpack_keys(self.keys[start:stop], 2 * self.group.rank)


@lru_cache(maxsize=None)
def _translates(group: GroupId) -> tuple[list, np.ndarray]:
    """The compiled simple reflections, and W.t, the orbit of t = T(0), as
    read-only int64 rows walked once per group; not read off
    ``roots_omega``, so the root-sum oracle shares nothing with ``generate``."""
    ops = operators(group)
    refl = [r.compiled() for r in ops.reflections]
    steps = orbit_rows(group, kernel.dominant_rows(ops.translation.compiled()[1][None], refl))
    steps.setflags(write=False)
    return refl, steps


def generate(group: GroupId, n: int, cap: int = DEFAULT_CAP) -> Fragment:
    """Breadth-first fragment of the affine group action (word definition),
    built from the dominant rows of its levels and expanded once.

    The fragment S_0 u ... u S_n equals S_{n-1} u S_n, because the levels
    nest two apart: S_{m-1} is inside S_{m+1}.  T translates by the highest
    root alpha_H, and the root reflection r0 = s_{alpha_H} lies in W, is
    linear and sends alpha_H to -alpha_H, so r0 T r0 = T^-1.  For x in
    S_{m-1}, r0 T x lies in S_m, and x = r0 T (r0 T x) then lies in
    S_{m+1}.  Hence S_m is inside S_n for every m <= n of the parity of n,
    and inside S_{n-1} for the others.

    Each level is W-invariant, so S_m = W.D_m with D_m its dominant rows.
    For w in W, W.T(w x) = W.(w^-1 T w x) = W.(x + w^-1 t), since T is the
    translation by t = T(0) and w is linear; so S_{m+1} = W.(D_m + W.t) and
    D_{m+1} = dom(D_m + W.t), with D_0 = {0}.  Every orbit holds exactly
    one dominant row, and orbits are disjoint, so |S_m| and
    |S_{m-1} u S_m| are sums of ``_orbit_sizes`` over D_m and over
    D_{m-1} u D_m.  The cap bounds each level and each union S_{m-1} u S_m,
    the fragment of cut-off m, tested in that order for m = 1..n from
    these counts before any point is expanded; D_m + W.t is swept to the
    dominant chamber a slab of rows at a time.  Each sweep step shortens
    the group element, so every orbit is a tree below its dominant row, and
    ``kernel.orbit_keys`` walks D_{n-1} u D_n down it, checking the count.
    The fragment keeps D_{n-1} u D_n, in key order, as its ``dominant``.
    """
    if n < 0:
        raise ValueError("cut-off must be non-negative")
    if cap < 1:
        raise ResourceLimitError(f"fragment exceeded cap {cap}")
    refl, steps = _translates(group)
    cols = 2 * group.rank
    slab = max(1, kernel._SLAB // len(steps))
    level = seeds = kernel.pack_rows(np.zeros((1, cols), dtype=np.int64))
    for _ in range(n):
        prev, level = level, kernel.unique_keys(np.concatenate([
            kernel.unique_keys(kernel.pack_rows(kernel.dominant_rows(
                (kernel.unpack_keys(level[lo:lo + slab], cols)[:, None] + steps).reshape(-1, cols), refl)))
            for lo in range(0, len(level), slab)
        ]))
        if _orbit_sizes(group, kernel.unpack_keys(level, cols)).sum() > cap:
            raise ResourceLimitError(f"reflection closure exceeded cap {cap}")
        seeds = kernel.unique_keys(np.concatenate([prev, level]))
        if _orbit_sizes(group, kernel.unpack_keys(seeds, cols)).sum() > cap:
            raise ResourceLimitError(f"fragment exceeded cap {cap}")
    seeds = kernel.unpack_keys(seeds, cols)
    fragment = Fragment(group, n, kernel.orbit_keys(seeds, _orbit_sizes(group, seeds), refl))
    seeds.setflags(write=False)
    object.__setattr__(fragment, "dominant", seeds)
    return fragment


def generate_rootsum(group: GroupId, n: int, cap: int = DEFAULT_CAP) -> Fragment:
    """Oracle fragment: every sum of at most n roots, deduplicated."""
    if n < 0:
        raise ValueError("cut-off must be non-negative")
    roots = np.array([v.flat() for v in roots_omega(group)], dtype=np.int64)
    levels = kernel.root_sums(roots, n, cap)
    return Fragment(group, n, np.sort(np.concatenate([k for k, _, _ in levels])))


def _orbit_sizes(group: GroupId, dominant: np.ndarray) -> np.ndarray:
    """|W| / |W_J| for each dominant row, J = {i : d_i = 0}: the stabilizer
    of a dominant point d is the parabolic subgroup W_J (Humphreys,
    *Reflection Groups and Coxeter Groups*, 1.12).  |W_J| is the product of
    the orders of the runs of J on the path diagram: (L+1)! for a run of
    length L of type A, and 2, 10, 120 or 14400 for a run of length 1-4
    that ends at the tau bond of an H-group, the last bond (I2(5), H3, H4;
    ibid. 2.11)."""
    k = group.rank

    def order(mask):  # |W_J| for J the set bits of mask
        *runs, last = "".join("1" if mask >> i & 1 else "0" for i in range(k)).split("0")
        tail = (1, 2, 10, 120, 14400)[len(last)] if group.is_h else factorial(len(last) + 1)
        return prod(factorial(len(run) + 1) for run in runs) * tail

    orders = np.array([order(mask) for mask in range(1 << k)], dtype=np.int64)
    zero = (dominant[:, 0::2] == 0) & (dominant[:, 1::2] == 0)
    return (orders[-1] // orders)[(zero << np.arange(k)).sum(axis=1)]


def orbit_rows(group: GroupId, dominant: np.ndarray) -> np.ndarray:
    """The int64 rows of the W-orbits of the ``dominant`` rows, in key order."""
    refl = [r.compiled() for r in operators(group).reflections]
    return kernel.unpack_keys(kernel.orbit_keys(dominant, _orbit_sizes(group, dominant), refl), 2 * group.rank)


def orbits(fragment: Fragment) -> tuple[np.ndarray, np.ndarray]:
    """The W-orbits of a W-invariant fragment: its dominant rows, one per
    orbit in key order, as a read-only (k, 2 * rank) int64 array, and their
    read-only ``_orbit_sizes``.

    A generated fragment carries its dominant rows.  Any other holds
    exactly one row with every coordinate >= 0 per orbit, found by a
    ``golden_sign`` pass.  Sorted distinct keys are closed under the
    reflections exactly when those orbit sizes sum to the size (checked
    first, so the walk never outgrows the fragment) and
    ``kernel.orbit_keys`` gives them back with no image outside the packed
    range.  Any other row set raises ``ValueError``.
    """
    group = fragment.group
    dominant = fragment.dominant
    if dominant is not None:
        sizes = _orbit_sizes(group, dominant)
    else:
        refl = [r.compiled() for r in operators(group).reflections]
        keys = fragment.keys
        mask = np.empty(fragment.size, dtype=bool)
        for start in range(0, fragment.size, kernel._SLAB):
            rows = fragment.rows(start, start + kernel._SLAB)
            sign = kernel.golden_sign(rows[:, 0::2], rows[:, 1::2])
            mask[start:start + len(rows)] = (sign >= 0).all(axis=1)
        dominant = kernel.unpack_keys(keys[mask], 2 * group.rank)
        sizes = _orbit_sizes(group, dominant)
        try:
            invariant = (sizes.sum() == fragment.size and (keys[1:] > keys[:-1]).all()
                         and np.array_equal(kernel.orbit_keys(dominant, sizes, refl), keys))
        except ResourceLimitError:
            invariant = False
        if not invariant:
            raise ValueError("orbits needs sorted distinct keys closed under the reflections")
        dominant.setflags(write=False)
    sizes.setflags(write=False)
    return dominant, sizes


def norm_keys(group: GroupId, rows: np.ndarray) -> np.ndarray:
    """The packed key of q = v^T adj(A) v for each row v: (v|v) = q / det
    with det = det(A), doubled for the unit-root H-groups."""
    return kernel.pack_rows(kernel.quadratic_form_rows(group, rows))


def shell_keys(group: GroupId, dominant: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The distinct ``norm_keys`` of the ``dominant`` rows of a W-invariant
    fragment, ascending, the index of each in ascending order of its norm,
    and the shell (that index) of each dominant row.  The norm is
    W-invariant, so these hold every row's key.  det > 0 for every group,
    so the norms are in the order of the Z[tau] values q, which
    ``kernel.exact_argsort`` sorts."""
    norms = norm_keys(group, dominant)
    keys = kernel.unique_keys(norms)
    q = kernel.unpack_keys(keys, 2)
    rank = np.argsort(kernel.exact_argsort(q[:, 0], q[:, 1]))
    return keys, rank, rank[np.searchsorted(keys, norms)]


def shells(fragment: Fragment) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Concentric shells: the distinct exact squared norms of a W-invariant
    fragment in ascending order, as (S, 2) int64 numerators (a, b) of
    a + b*tau and (S,) int64 denominators (``_quotients``), and the int64
    number of points at each, the sizes of the orbits of that norm."""
    group = fragment.group
    dominant, sizes = orbits(fragment)
    keys, rank, shell = shell_keys(group, dominant)
    counts = np.zeros(len(keys), dtype=np.int64)
    np.add.at(counts, shell, sizes)
    det = golden_det(cartan(group)) * (2 if group.is_h else 1)
    return *_quotients(kernel.unpack_keys(keys[np.argsort(rank)], 2), det), counts


def _quotients(q: np.ndarray, det: GoldenInt) -> tuple[np.ndarray, np.ndarray]:
    """The (N, 2) int64 rows q of a + b*tau divided by ``det``, reduced as
    ``GoldenRational(GoldenInt(a, b)) / det`` reduces them: q * conj(det)
    over N(det), the sign moved to the numerator, and the gcd of the
    numerator's coefficients and the denominator divided out, so 0 is 0/1.
    Returns the numerator rows and the positive denominators."""
    norm = det.norm()
    num = kernel.apply(compile_forms(lambda x: (GoldenInt(*x) * det.conj() * (1 if norm > 0 else -1),), 2), q)
    g = np.gcd(np.gcd(num[:, 0], num[:, 1]), abs(norm))
    return num // g[:, None], abs(norm) // g


def _xi_times(x):
    z = XI * CycloInt(GoldenInt(*x[:2]), GoldenInt(*x[2:]))
    return z.p, z.q


# Rotation by xi on (p.a, p.b, q.a, q.b) rows, read off ``XI *``.
_XI_ROTATION = compile_forms(_xi_times, 4)


def check_tenfold(fragment: Fragment) -> bool:
    """Exact invariance of the cyclotomic image under the injective rotation
    by xi: the sorted rotated keys equal the distinct keys, none out of range."""
    if fragment.group is not GroupId.H2:
        raise ValueError("ten-fold symmetry is an H2 property")
    keys = kernel.unique_keys(kernel.pack_rows(kernel.cyclo_rows(fragment.rows())))
    try:
        turned = kernel.pack_rows(kernel.apply(_XI_ROTATION, kernel.unpack_keys(keys, 4)))
    except ResourceLimitError:
        return False
    return np.array_equal(np.sort(turned), keys)


@lru_cache(maxsize=None)
def cached_fragment(group: GroupId, n: int) -> Fragment:
    """Memoized word-BFS fragment; used by checks that revisit small sizes."""
    return generate(group, n)
