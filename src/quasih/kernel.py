"""Vectorized exact Z[tau] arithmetic on int64 coefficient arrays.

A point of rank k is one row (a1, b1, ..., ak, bk) of an (N, 2k) int64
array; coordinate i is a_i + b_i*tau.  Every function here is exact
integer arithmetic with an explicit bound check in front, so a value can
never wrap: inputs that would overflow raise ``ResourceLimitError``.  The
scalar ``GoldenInt``/``GoldenRational`` classes stay the reference these
functions are tested against.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .rootsystem import GroupId, cartan, golden_adjugate, integer_form

_INT64_HEADROOM = 1 << 62


class ResourceLimitError(RuntimeError):
    """Raised when a computation would exceed a configured cap or the int64 range."""


def _absmax(x: np.ndarray) -> int:
    return max(int(x.max()), -int(x.min())) if x.size else 0


def _require(bound: int, limit: int, what: str) -> None:
    if bound >= limit:
        raise ResourceLimitError(f"{what}: coefficient bound {bound} reaches {limit}, unsafe for int64")


def golden_sign(a, b) -> np.ndarray:
    """Elementwise exact sign of a + b*tau, the test of ``GoldenInt.sign``:
    2(a + b*tau) = s + t*sqrt(5) with s = 2a + b, t = b; when the signs of
    s and t differ, s^2 against 5t^2 decides."""
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    _require(max(_absmax(a), _absmax(b)), 1 << 29, "golden_sign")
    s = 2 * a + b
    sign_s, sign_t = np.sign(s), np.sign(b)
    return np.where((sign_s == sign_t) | (s * s > 5 * b * b), sign_s, sign_t)


def apply(op: tuple[np.ndarray, np.ndarray], x: np.ndarray) -> np.ndarray:
    """Apply a compiled affine operator (M, off) to every row: x M^T + off."""
    m, off = op
    row_sum = int(np.abs(m).sum(axis=1).max())
    _require(_absmax(x) * row_sum + _absmax(off), _INT64_HEADROOM, "operator image")
    return x @ m.T + off


def pack_rows(x: np.ndarray) -> np.ndarray:
    """One uint64 key per row, 64 // cols bits per column, each column
    shifted to unsigned; key order equals lexicographic row order."""
    cols = x.shape[1]
    width = 64 // cols
    half = 1 << (width - 1)
    if x.size and (int(x.min()) < -half or int(x.max()) >= half):
        raise ResourceLimitError(
            f"coefficient outside the {width}-bit packed-key range [{-half}, {half})"
        )
    u = (x + half).astype(np.uint64)
    keys = np.zeros(len(x), dtype=np.uint64)
    for c in range(cols):
        keys = (keys << np.uint64(width)) | u[:, c]
    return keys


def unpack_keys(keys: np.ndarray, cols: int) -> np.ndarray:
    """The (len(keys), cols) rows that ``pack_rows`` packed into ``keys``."""
    width = 64 // cols
    mask = np.uint64((1 << width) - 1)
    out = np.empty((len(keys), cols), dtype=np.int64)
    for c in range(cols):
        shift = np.uint64(width * (cols - 1 - c))
        out[:, c] = ((keys >> shift) & mask).astype(np.int64)
    return out - (1 << (width - 1))


def closure(seeds: np.ndarray, gens, cols: int, cap: int) -> np.ndarray:
    """Sorted keys of the closure of sorted unique ``seeds`` under ``gens``,
    grown one frontier at a time; the cap is checked after every round."""
    seen = frontier = seeds
    while frontier.size:
        rows = unpack_keys(frontier, cols)
        images = np.unique(np.concatenate([pack_rows(apply(g, rows)) for g in gens]))
        frontier = images[~np.isin(images, seen, assume_unique=True)]
        # two sorted disjoint runs: the stable sort merges them in linear time
        seen = np.sort(np.concatenate([seen, frontier]), kind="stable")
        if seen.size > cap:
            raise ResourceLimitError(f"reflection closure exceeded cap {cap}")
    return seen


def dominant_rows(x: np.ndarray, reflections) -> np.ndarray:
    """Reflect each row at its first negative coordinate until every row is
    dominant, the rule of ``to_dominant`` applied to all rows at once."""
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


def compile_forms(fn, dims: int) -> tuple[np.ndarray, np.ndarray]:
    """(M, off) of ``fn``, a function of ``dims`` integers returning Z[tau]
    values and integer-affine in its arguments: off is its value at the
    origin and column j of M its change along unit vector j, both on flat
    (a1, b1, ...) rows, the shape of ``AffineOperator.compiled()``."""

    def flat(point):
        return np.array([c for v in fn(point) for c in (v.a, v.b)], dtype=np.int64)

    off = flat((0,) * dims)
    cols = [flat(tuple(int(i == j) for i in range(dims))) - off for j in range(dims)]
    return np.stack(cols, axis=1), off


def nonnegative_rows(forms, rows: np.ndarray) -> np.ndarray:
    """The rows, in order, at which every Z[tau] value of the compiled
    ``forms`` is >= 0; form by form on the rows still inside, so no
    (rows x forms) array is built."""
    m, off = forms
    for j in range(0, len(off), 2):
        value = apply((m[j:j + 2], off[j:j + 2]), rows)
        rows = rows[golden_sign(value[:, 0], value[:, 1]) >= 0]
    return rows


def box_nonnegative(bound: int, dims: int, forms) -> np.ndarray:
    """Rows of the integer box [-bound, bound]^dims, in lexicographic order,
    at which every Z[tau] value of the compiled ``forms`` is >= 0.  The box
    is scanned one slab of the first coordinate at a time, so memory is
    O((2*bound + 1)^(dims - 1))."""
    side = 2 * bound + 1
    rest = np.indices((side,) * (dims - 1), dtype=np.int64)
    rest = rest.reshape(dims - 1, side ** (dims - 1)).T - bound
    kept = []
    for first in range(-bound, bound + 1):
        rows = np.concatenate([np.full((len(rest), 1), first, dtype=np.int64), rest], axis=1)
        kept.append(nonnegative_rows(forms, rows))
    return np.concatenate(kept)


@lru_cache(maxsize=None)
def _adjugate(group: GroupId) -> tuple[np.ndarray, np.ndarray]:
    """adj(A) as an operator on coefficient rows, with zero offset."""
    m = np.array(integer_form(golden_adjugate(cartan(group).entries)), dtype=np.int64)
    m.setflags(write=False)
    return m, np.zeros(len(m), dtype=np.int64)


def quadratic_form_rows(group: GroupId, x: np.ndarray) -> np.ndarray:
    """(N, 2) array of the Z[tau] values v^T adj(A) v."""
    w = apply(_adjugate(group), x)
    _require(3 * group.rank * _absmax(x) * _absmax(w), _INT64_HEADROOM, "quadratic form")
    # (a + b tau)(c + d tau) = ac + bd + (ad + bc + bd) tau, summed over coordinates
    a, b, c, d = x[:, 0::2], x[:, 1::2], w[:, 0::2], w[:, 1::2]
    bd = b * d
    return np.stack([(a * c + bd).sum(axis=1), (a * d + b * c + bd).sum(axis=1)], axis=1)
