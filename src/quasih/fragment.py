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
rows, the only read of a fragment.  The expansion, orbits, shells and the
ten-fold check run on keys and slabs of rows through ``quasih.kernel``; an
orbit is recorded by its dominant point and size, a shell by its exact
norm and size.  A coefficient outside the key range raises
``ResourceLimitError`` instead of wrapping; points of cut-off n have
coefficients of at most 2n in absolute value, far inside the range at any
size the cap admits.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import factorial, prod

import numpy as np

from . import kernel
from .golden import XI, CycloInt, GoldenInt, GoldenRational, compile_forms
from .kernel import ResourceLimitError
from .rootsystem import (
    GroupId,
    OmegaVector,
    cartan,
    golden_det,
    roots_omega,
)
from .affine import operators

DEFAULT_CAP = 10_000_000

@dataclass(frozen=True, eq=False)
class Fragment:
    """A point set with its cut-off.

    ``keys`` is the read-only uint64 array of packed point keys
    (``kernel.pack_rows``), one per row; ``from_rows`` packs an (N, 2k)
    coefficient array.
    """

    group: GroupId
    n: int
    keys: np.ndarray

    def __post_init__(self) -> None:
        keys = np.asarray(self.keys).view()
        if keys.dtype != np.uint64 or keys.ndim != 1:
            raise TypeError("Fragment keys are a 1-D uint64 array; Fragment.from_rows packs rows")
        keys.setflags(write=False)
        object.__setattr__(self, "keys", keys)

    @classmethod
    def from_rows(cls, group: GroupId, n: int, coeffs) -> Fragment:
        rows = np.asarray(coeffs, dtype=np.int64).reshape(-1, 2 * group.rank)
        return cls(group, n, kernel.pack_rows(rows))

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
    top = kernel.dominant_rows(ops.translation.compiled()[1][None], refl)
    steps = kernel.unpack_keys(kernel.orbit_keys(top, _orbit_sizes(group, top), refl), 2 * group.rank)
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
    return Fragment(group, n, kernel.orbit_keys(seeds, _orbit_sizes(group, seeds), refl))


def generate_rootsum(group: GroupId, n: int, cap: int = DEFAULT_CAP) -> Fragment:
    """Oracle fragment: every sum of at most n roots, deduplicated."""
    if n < 0:
        raise ValueError("cut-off must be non-negative")
    roots = np.array([v.flat() for v in roots_omega(group)], dtype=np.int64)
    levels = kernel.root_sums(roots, n, cap)
    return Fragment(group, n, np.sort(np.concatenate([k for k, _, _ in levels])))


@dataclass(frozen=True)
class OrbitRecord:
    """One orbit of a fragment under the finite reflection group W: its
    dominant point and its number of points."""

    dominant: OmegaVector
    size: int


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


def orbits(fragment: Fragment) -> tuple[OrbitRecord, ...]:
    """Partition of a W-invariant fragment into reflection-group orbits
    keyed by dominant point, in the order of the dominant points' keys.

    Such a fragment holds exactly one dominant row, with every coordinate
    >= 0, per orbit, of ``_orbit_sizes`` points; a ``golden_sign`` pass finds
    them.  Sorted distinct keys are closed under the reflections exactly when
    those sizes sum to the size (checked first, so the walk never outgrows
    the fragment) and ``kernel.orbit_keys`` gives them back with no image
    outside the packed range.  Any other row set raises ``ValueError``.
    """
    group = fragment.group
    refl = [r.compiled() for r in operators(group).reflections]
    keys = fragment.keys
    dominant = np.empty(fragment.size, dtype=bool)
    for start in range(0, fragment.size, kernel._SLAB):
        rows = fragment.rows(start, start + kernel._SLAB)
        sign = kernel.golden_sign(rows[:, 0::2], rows[:, 1::2])
        dominant[start:start + len(rows)] = (sign >= 0).all(axis=1)
    dom = kernel.unpack_keys(keys[dominant], 2 * group.rank)
    sizes = _orbit_sizes(group, dom)
    try:
        invariant = (sizes.sum() == fragment.size and (keys[1:] > keys[:-1]).all()
                     and np.array_equal(kernel.orbit_keys(dom, sizes, refl), keys))
    except ResourceLimitError:
        invariant = False
    if not invariant:
        raise ValueError("orbits needs sorted distinct keys closed under the reflections")
    return tuple(
        OrbitRecord(OmegaVector.from_flat(group, d), size)
        for d, size in zip(dom.tolist(), sizes.tolist())
    )


@dataclass(frozen=True)
class Shell:
    """One exact squared norm of a fragment and its number of points."""

    norm: GoldenRational
    size: int


def shell_labels(fragment: Fragment) -> tuple[list[GoldenRational], np.ndarray]:
    """The distinct exact squared norms in ascending order, and for every
    row the index of its norm in that list.

    (v|v) = q / det with q = v^T adj(A) v and det = det(A), doubled for the
    unit-root H-groups; det > 0 for every group, so the norms are in the
    order of the Z[tau] values q, which ``kernel.exact_argsort`` sorts.  q
    is computed one slab of rows at a time and kept as packed keys."""
    group = fragment.group
    qkeys = np.empty(fragment.size, dtype=np.uint64)
    for start in range(0, fragment.size, kernel._SLAB):
        q = kernel.quadratic_form_rows(group, fragment.rows(start, start + kernel._SLAB))
        qkeys[start:start + len(q)] = kernel.pack_rows(q)
    distinct = kernel.unique_keys(qkeys)
    q = kernel.unpack_keys(distinct, 2)
    order = kernel.exact_argsort(q[:, 0], q[:, 1])
    rank = np.empty(len(order), dtype=np.int64)
    rank[order] = np.arange(len(order))
    det = golden_det(cartan(group)) * (2 if group.is_h else 1)
    norms = [GoldenRational(GoldenInt(a, b)) / det for a, b in q[order].tolist()]
    return norms, rank[np.searchsorted(distinct, qkeys)]


def shells(fragment: Fragment) -> tuple[Shell, ...]:
    """Concentric shells: points counted by exact squared distance."""
    norms, labels = shell_labels(fragment)
    counts = np.bincount(labels, minlength=len(norms))
    return tuple(Shell(norm, size) for norm, size in zip(norms, counts.tolist()))


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
