"""Finite quasicrystal fragments grown by the affine-extended groups.

A fragment with cut-off n is the set of images of the origin under words
in the simple reflections and the translation T in which T occurs at most
n times.  Reflections fix the origin and levels nest, so the whole set is
the union of reflection closures

    S_0 = {O},   S_{m+1} = closure(T(S_m)),   fragment = S_0 u ... u S_n.

The independent oracle builds the same set as all sums of at most n roots.

A ``Fragment`` stores its points as one read-only (N, 2k) int64 array of
Z[tau] coefficient pairs (a1, b1, ..., ak, bk), rows in lexicographic
order, so output is reproducible bit for bit.  ``points``, the tuple of
``OmegaVector`` the public API and the checks use, is built from it on
first access only.  Closure, orbits and shells run on that array through
``quasih.kernel``; sets of points are deduplicated as packed uint64 row
keys with 64 // 2k bits per coefficient (16 for rank 2, 10 for H3, 8 for
H4).  A coefficient outside that range raises ``ResourceLimitError``
instead of wrapping; points of cut-off n have coefficients of at most 2n
in absolute value, far inside the range at any size the cap admits.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, cmp_to_key, lru_cache

import numpy as np

from . import kernel
from .golden import XI, CycloInt, GoldenInt, GoldenRational, compile_forms
from .kernel import ResourceLimitError
from .rootsystem import (
    GroupId,
    OmegaVector,
    cartan,
    cyclo_from_omega,
    golden_det,
    roots_omega,
)
from .affine import operators

DEFAULT_CAP = 10_000_000

@dataclass(frozen=True, eq=False)
class Fragment:
    """A point set with its cut-off and construction method.

    ``coeffs`` is the read-only (N, 2k) int64 coefficient array.
    """

    group: GroupId
    n: int
    coeffs: np.ndarray
    method: str

    def __post_init__(self) -> None:
        coeffs = np.asarray(self.coeffs, dtype=np.int64).reshape(-1, 2 * self.group.rank).view()
        coeffs.setflags(write=False)
        object.__setattr__(self, "coeffs", coeffs)

    @cached_property
    def points(self) -> tuple[OmegaVector, ...]:
        return tuple(OmegaVector.from_flat(self.group, row) for row in self.coeffs.tolist())

    @property
    def size(self) -> int:
        return len(self.coeffs)

    def point_set(self) -> frozenset[OmegaVector]:
        return frozenset(self.points)

    def cyclo_points(self) -> tuple[CycloInt, ...]:
        if self.group is not GroupId.H2:
            raise ValueError("cyclotomic image only exists for H2 fragments")
        return tuple(cyclo_from_omega(v) for v in self.points)


def generate(group: GroupId, n: int, cap: int = DEFAULT_CAP) -> Fragment:
    """Breadth-first fragment of the affine group action (word definition)."""
    if n < 0:
        raise ValueError("cut-off must be non-negative")
    if cap < 1:
        raise ResourceLimitError(f"fragment exceeded cap {cap}")
    ops = operators(group)
    refl = [r.compiled() for r in ops.reflections]
    trans = ops.translation.compiled()
    cols = 2 * group.rank
    total = level = kernel.pack_rows(np.zeros((1, cols), dtype=np.int64))
    for _ in range(n):
        # a translation keeps rows distinct and in lexicographic order
        shifted = kernel.pack_rows(kernel.apply(trans, kernel.unpack_keys(level, cols)))
        level = kernel.closure(shifted, refl, cols, cap)
        total = np.union1d(total, level)
        if total.size > cap:
            raise ResourceLimitError(f"fragment exceeded cap {cap}")
    return Fragment(group, n, kernel.unpack_keys(total, cols), "word_bfs")


def generate_rootsum(group: GroupId, n: int, cap: int = DEFAULT_CAP) -> Fragment:
    """Oracle fragment: every sum of at most n roots, deduplicated."""
    if n < 0:
        raise ValueError("cut-off must be non-negative")
    roots = np.array([v.flat() for v in roots_omega(group)], dtype=np.int64)
    levels = kernel.root_sums(roots, n, cap)
    keys = np.sort(np.concatenate([k for k, _, _ in levels]))
    return Fragment(group, n, kernel.unpack_keys(keys, roots.shape[1]), "root_sum")


def to_dominant(v: OmegaVector) -> tuple[OmegaVector, tuple[int, ...]]:
    """Reflect any negative coordinate until none is left.

    Returns the dominant representative together with the word applied,
    as reflection indices in application order (first applied first).
    """
    ops = operators(v.group)
    word: list[int] = []
    current = v
    while True:
        for i, c in enumerate(current.coords):
            if c.sign() < 0:
                current = ops.reflections[i].apply(current)
                word.append(i)
                break
        else:
            return current, tuple(word)


def orbit_of(v: OmegaVector) -> frozenset[OmegaVector]:
    ops = operators(v.group)
    seen = {v}
    stack = [v]
    while stack:
        p = stack.pop()
        for r in ops.reflections:
            q = r.apply(p)
            if q not in seen:
                seen.add(q)
                stack.append(q)
    return frozenset(seen)


@dataclass(frozen=True)
class OrbitRecord:
    dominant: OmegaVector
    size: int
    members: tuple[OmegaVector, ...]


def _groups(labels: np.ndarray, count: int) -> list[np.ndarray]:
    """Row indices carrying each label 0..count-1, in row order."""
    order = np.argsort(labels, kind="stable")
    return np.split(order, np.cumsum(np.bincount(labels, minlength=count))[:-1])


def orbits(fragment: Fragment) -> tuple[OrbitRecord, ...]:
    """Partition into reflection-group orbits keyed by dominant point."""
    refl = [r.compiled() for r in operators(fragment.group).reflections]
    dom = kernel.dominant_rows(fragment.coeffs, refl)
    _, first, labels = np.unique(kernel.pack_rows(dom), return_index=True, return_inverse=True)
    points = fragment.points
    return tuple(
        OrbitRecord(
            OmegaVector.from_flat(fragment.group, dom[i].tolist()),
            len(idx),
            tuple(points[j] for j in idx.tolist()),
        )
        for i, idx in zip(first, _groups(labels, len(first)))
    )


@dataclass(frozen=True)
class Shell:
    norm: GoldenRational
    members: tuple[OmegaVector, ...]

    @property
    def size(self) -> int:
        return len(self.members)


def shell_labels(fragment: Fragment) -> tuple[list[GoldenRational], np.ndarray]:
    """The distinct exact squared norms in ascending order, and for every
    row the index of its norm in that list."""
    group = fragment.group
    q = kernel.quadratic_form_rows(group, fragment.coeffs)
    _, first, labels = np.unique(kernel.pack_rows(q), return_index=True, return_inverse=True)
    # (v|v) = v^T adj(A) v / det(A), halved for the unit-root H-groups
    det = golden_det(cartan(group).entries) * (2 if group.is_h else 1)
    norms = [GoldenRational(GoldenInt(*q[i].tolist())) / det for i in first]
    order = sorted(range(len(norms)), key=cmp_to_key(lambda s, t: (norms[s] - norms[t]).sign()))
    rank = np.empty(len(order), dtype=np.int64)
    rank[order] = np.arange(len(order))
    return [norms[i] for i in order], rank[labels]


def shells(fragment: Fragment) -> tuple[Shell, ...]:
    """Concentric shells: points grouped by exact squared distance."""
    norms, labels = shell_labels(fragment)
    points = fragment.points
    return tuple(
        Shell(norm, tuple(points[j] for j in idx.tolist()))
        for norm, idx in zip(norms, _groups(labels, len(norms)))
    )


def _xi_times(x):
    z = XI * CycloInt(GoldenInt(*x[:2]), GoldenInt(*x[2:]))
    return z.p, z.q


# Rotation by xi on (p.a, p.b, q.a, q.b) rows, read off ``XI *``.
_XI_ROTATION = compile_forms(_xi_times, 4)


def check_tenfold(fragment: Fragment) -> bool:
    """Exact invariance of the cyclotomic image under rotation by xi: every
    rotated row's packed key is among the rows' keys."""
    if fragment.group is not GroupId.H2:
        raise ValueError("ten-fold symmetry is an H2 property")
    rows = kernel.cyclo_rows(fragment.coeffs)
    rotated = kernel.pack_rows(kernel.apply(_XI_ROTATION, rows))
    return bool(np.isin(rotated, kernel.pack_rows(rows)).all())


@lru_cache(maxsize=None)
def cached_fragment(group: GroupId, n: int) -> Fragment:
    """Memoized word-BFS fragment; used by checks that revisit small sizes."""
    return generate(group, n)
