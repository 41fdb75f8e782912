"""Finite quasicrystal fragments grown by the affine-extended groups.

A fragment with cut-off n is the set of images of the origin under words
in the simple reflections and the translation T in which T occurs at most
n times.  Reflections fix the origin, so the set is the union of the
levels

    S_0 = {O},   S_{m+1} = closure(T(S_m)),   fragment = S_0 u ... u S_n,

and since the levels nest two apart that union is S_{n-1} u S_n (see
``generate``).  The independent oracle builds the same set as all sums of
at most n roots.

A ``Fragment`` stores its points as one read-only array of packed uint64
keys (``kernel.pack_rows``) of the Z[tau] coefficient rows
(a1, b1, ..., ak, bk), with 64 // 2k bits per coefficient (16 for rank 2,
10 for H3, 8 for H4).  Key order is lexicographic row order, and both
constructions give the keys sorted and distinct, so output is
reproducible bit for bit.  ``rows(start, stop)`` unpacks a slab of int64
rows, the only read of a fragment.  Closure, orbits, shells and the
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


def _word_levels(group: GroupId, n: int, cap: int):
    """The sorted keys of the levels S_0, ..., S_n, one at a time."""
    ops = operators(group)
    refl = [r.compiled() for r in ops.reflections]
    trans = ops.translation.compiled()
    cols = 2 * group.rank
    slab = kernel._SLAB
    level = kernel.pack_rows(np.zeros((1, cols), dtype=np.int64))
    yield level
    for _ in range(n):
        # a translation keeps rows distinct and in lexicographic order
        shifted = np.concatenate([
            kernel.pack_rows(kernel.apply(trans, kernel.unpack_keys(level[lo:lo + slab], cols)))
            for lo in range(0, len(level), slab)
        ])
        level = kernel.closure(shifted, refl, cols, cap)
        yield level


def generate(group: GroupId, n: int, cap: int = DEFAULT_CAP) -> Fragment:
    """Breadth-first fragment of the affine group action (word definition).

    The fragment S_0 u ... u S_n equals S_{n-1} u S_n, because the levels
    nest two apart: S_{m-1} is inside S_{m+1}.  T translates by the highest
    root alpha_H, and the root reflection r0 = s_{alpha_H} lies in W, is
    linear and sends alpha_H to -alpha_H, so r0 T r0 = T^-1.  For x in
    S_{m-1}, r0 T x lies in S_m, and x = r0 T (r0 T x) then lies in
    S_{m+1}.  Hence S_m is inside S_n for every m <= n of the parity of n,
    and inside S_{n-1} for the others.  The cap bounds each level and each
    union S_{m-1} u S_m, the fragment of cut-off m.
    """
    if n < 0:
        raise ValueError("cut-off must be non-negative")
    if cap < 1:
        raise ResourceLimitError(f"fragment exceeded cap {cap}")
    prev = None
    for level in _word_levels(group, n, cap):
        if prev is None:
            total = level
        else:
            # two sorted disjoint runs: the stable sort merges them in linear time
            total = np.concatenate([level, prev[~kernel.isin_sorted(prev, level)]])
            total.sort(kind="stable")
        if total.size > cap:
            raise ResourceLimitError(f"fragment exceeded cap {cap}")
        prev = level
    return Fragment(group, n, total)


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


@lru_cache(maxsize=None)
def _orbit_sizes(group: GroupId) -> np.ndarray:
    """|W| / |W_J| for every set J of simple reflections, indexed by the
    bitmask of J, read-only.  The stabilizer of a dominant point d is the
    parabolic subgroup W_J with J = {i : d_i = 0} (Humphreys, *Reflection
    Groups and Coxeter Groups*, 1.12), so the orbit of d has |W| / |W_J|
    points.  The point with every coordinate 1 has a trivial stabilizer,
    so its orbit under the reflections of J, grown by ``kernel.closure``,
    has |W_J| points; |W| is |W_J| for J = {1, ..., k-1} times the size of
    the orbit of the first fundamental weight."""
    k = group.rank
    refl = [r.compiled() for r in operators(group).reflections]

    def orbit(gens, first, rest):
        row = np.zeros((1, 2 * k), dtype=np.int64)
        row[0, 0::2] = [first] + [rest] * (k - 1)
        return kernel.closure(kernel.pack_rows(row), gens, 2 * k, DEFAULT_CAP).size

    full = (1 << k) - 1
    order = [1] + [orbit([g for i, g in enumerate(refl) if mask >> i & 1], 1, 1)
                   for mask in range(1, full)]
    order.append(order[full - 1] * orbit(refl, 1, 0))
    sizes = order[full] // np.array(order, dtype=np.int64)
    sizes.setflags(write=False)
    return sizes


def orbits(fragment: Fragment) -> tuple[OrbitRecord, ...]:
    """Partition of a W-invariant fragment into reflection-group orbits
    keyed by dominant point, in the order of the dominant points' keys.

    Such a fragment holds exactly one dominant row, with every coordinate
    >= 0, per orbit, and that orbit has ``_orbit_sizes`` points: once the
    keys are sorted and distinct and ``kernel.closed_under`` the
    reflections, one ``golden_sign`` pass over slabs of rows finds them.
    Any other row set raises ``ValueError``.
    """
    group = fragment.group
    k = group.rank
    refl = [r.compiled() for r in operators(group).reflections]
    keys = fragment.keys
    if not ((keys[1:] > keys[:-1]).all() and kernel.closed_under(keys, refl, 2 * k)):
        raise ValueError("orbits needs sorted distinct keys closed under the reflections")
    dominant = np.empty(fragment.size, dtype=bool)
    for start in range(0, fragment.size, kernel._SLAB):
        rows = fragment.rows(start, start + kernel._SLAB)
        sign = kernel.golden_sign(rows[:, 0::2], rows[:, 1::2])
        dominant[start:start + len(rows)] = (sign >= 0).all(axis=1)
    dom = kernel.unpack_keys(keys[dominant], 2 * k)
    zero = (dom[:, 0::2] == 0) & (dom[:, 1::2] == 0)
    sizes = _orbit_sizes(group)[(zero << np.arange(k)).sum(axis=1)]
    if sizes.sum() != fragment.size:
        raise AssertionError("the orbit sizes of an invariant fragment do not sum to its size")
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
    """Exact invariance of the cyclotomic image under rotation by xi: the
    sorted packed keys of the cyclotomic rows are ``kernel.closed_under``
    the rotation."""
    if fragment.group is not GroupId.H2:
        raise ValueError("ten-fold symmetry is an H2 property")
    keys = np.sort(kernel.pack_rows(kernel.cyclo_rows(fragment.rows())))
    return kernel.closed_under(keys, [_XI_ROTATION], 4)


@lru_cache(maxsize=None)
def cached_fragment(group: GroupId, n: int) -> Fragment:
    """Memoized word-BFS fragment; used by checks that revisit small sizes."""
    return generate(group, n)
