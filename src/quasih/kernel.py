"""Vectorized exact Z[tau] arithmetic on int64 coefficient arrays.

A point of rank k is one row (a1, b1, ..., ak, bk) of an (N, 2k) int64
array; coordinate i is a_i + b_i*tau.  Every function here is exact
integer arithmetic with an explicit bound check in front, so a value can
never wrap: inputs that would overflow raise ``ResourceLimitError``.  A
float may propose a value (the thresholds of ``box_nonnegative``), but
exact signs certify it before it is used.  The scalar
``GoldenInt``/``GoldenRational`` classes stay the reference these
functions are tested against, and every integer matrix here is read off
them by ``golden.compile_forms`` or ``golden.bilinear_forms``.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .golden import PHI, ZERO, GoldenInt, bilinear_forms
from .rootsystem import _MODELS, GroupId, _alpha_numerators, _cyclo_map, cartan, golden_adjugate

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
    keys = np.zeros(len(x), dtype=np.uint64)
    for c in range(cols):
        keys <<= np.uint64(width)
        keys |= (x[:, c].astype(np.int64, copy=False) + half).view(np.uint64)
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


def unique_keys(keys: np.ndarray) -> np.ndarray:
    """The distinct values of ``keys``, ascending: ``np.sort`` and an
    adjacent-difference mask.  numpy's plain ``np.unique`` hashes uint64
    keys, which is many times slower on millions of them."""
    keys = np.sort(keys)
    keep = np.ones(len(keys), dtype=bool)
    keep[1:] = keys[1:] != keys[:-1]
    return keys[keep]


def isin_sorted(keys: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Mask of the ``keys`` present in the sorted non-empty ``table``:
    ``np.searchsorted`` lands on a key where it is present, and the index is
    clipped for keys past the end.  ``np.isin`` would sort both arrays."""
    at = np.minimum(np.searchsorted(table, keys), table.size - 1)
    return table[at] == keys


# Rows per slab: the frontier rows of ``root_sums``, the dominant rows of
# ``orbit_keys`` (whose orbits also start in one 2^20-point window), the
# sums D_m + W.t of ``fragment.generate``, the sign pass of
# ``fragment.orbits`` on a fragment that carries no dominant rows, and, a
# quarter of it, the border box that ``affine.enumerate_generalized`` tests.
_SLAB = 4096


def _reflection_mats(reflections) -> np.ndarray:
    """The compiled simple reflections as matrices acting on rows: linear,
    with absolute row sums <= 3, so rows below 2^29 map below 2^31."""
    assert all(not off.any() and np.abs(m).sum(axis=1).max() <= 3 for m, off in reflections)
    return np.stack([m.T for m, _ in reflections])


def dominant_rows(x: np.ndarray, reflections) -> np.ndarray:
    """Reflect each row at its first negative coordinate until every row is
    dominant, the rule of ``rootsystem.to_dominant``, one matrix per row."""
    mats = _reflection_mats(reflections)
    x = x.copy()
    active = np.arange(len(x))
    while active.size:
        neg = golden_sign(x[active, 0::2], x[active, 1::2]) < 0
        has = neg.any(axis=1)
        active = active[has]
        x[active] = np.einsum("ni,nij->nj", x[active], mats[neg[has].argmax(axis=1)])
    return x


def orbit_keys(dominant: np.ndarray, sizes: np.ndarray, reflections) -> np.ndarray:
    """Sorted keys of the W-orbits of the distinct ``dominant`` rows, of
    ``sizes`` points each, each point made once with no membership test.
    ``dominant_rows`` takes y to s_j y, j its first negative coordinate, which
    shortens w in y = w d (Humphreys, *Reflection Groups and Coxeter Groups*,
    1.6-1.10), so each orbit is a tree below its dominant row: s_i x, x_i > 0,
    is a child of x exactly when its coordinates before i are >= 0.  Slabs of
    <= ``_SLAB`` rows whose orbits start in one ``_SLAB << 8``-point window
    are walked a depth at a time into one buffer, sorted at the end; an image
    past the packed range raises ``ResourceLimitError``."""
    mats = _reflection_mats(reflections)
    keys = np.empty(int(sizes.sum()), dtype=np.uint64)
    slab = (np.cumsum(sizes) - sizes) // (_SLAB << 8) + np.arange(len(sizes)) // _SLAB
    at = 0
    for frontier in np.split(dominant, np.flatnonzero(np.diff(slab)) + 1):
        while len(frontier):
            keys[at:at + len(frontier)] = pack_rows(frontier)
            at += len(frontier)
            pos = golden_sign(frontier[:, 0::2], frontier[:, 1::2]) > 0
            images = [frontier[pos[:, i]] @ m for i, m in enumerate(mats)]
            frontier = np.concatenate([y[(golden_sign(y[:, 0:2 * i:2], y[:, 1:2 * i:2]) >= 0).all(axis=1)]
                                       for i, y in enumerate(images)])
    if at != keys.size:
        raise AssertionError(f"the orbit walk made {at} points, not the {keys.size} of the orbit sizes")
    keys.sort()
    return keys


def root_sums(roots: np.ndarray, n: int, cap: int) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Breadth-first sums of at most n ``roots`` rows on packed keys, to level
    n or an empty level.  Level m > 0 is (keys, parent, root): the sorted keys
    first reached with m roots, with each one's first-hit parent in level m-1
    and root added, by index.  A root adds key(r) - key(0) to a key while no
    column leaves its packed range, as n * max|root| < 2^(width-1) ensures.
    Slabs of the frontier bound the candidates; the cap, which counts the
    origin, is checked per level."""
    if cap < 1:
        raise ResourceLimitError(f"fragment exceeded cap {cap}")
    cols = roots.shape[1]
    _require(n * _absmax(roots), 1 << (64 // cols - 1), "root sums")
    seen = pack_rows(np.zeros((1, cols), dtype=np.int64))
    steps = pack_rows(roots) - seen
    levels = [(seen, None, None)]
    while len(levels) <= n and levels[-1][0].size:
        frontier = levels[-1][0]
        keys, hits = [], []
        for lo in range(0, len(frontier), _SLAB):
            k, first = np.unique((frontier[lo:lo + _SLAB, None] + steps).ravel(), return_index=True)
            keys.append(k)
            hits.append(first + lo * len(steps))
        keys, first = np.unique(np.concatenate(keys), return_index=True)
        new = ~np.isin(keys, seen, assume_unique=True)
        hit = np.concatenate(hits)[first[new]]
        levels.append((keys[new], hit // len(steps), hit % len(steps)))
        seen = np.sort(np.concatenate([seen, keys[new]]), kind="stable")
        if seen.size > cap:
            raise ResourceLimitError(f"fragment exceeded cap {cap}")
    return levels


def _threshold(base: np.ndarray, step: np.ndarray, bound: int) -> np.ndarray:
    """Per row of the (N, 2) Z[tau] values ``base``, the least integer t in
    [-bound, bound + 1] with base + t*step >= 0, or bound + 1 if there is
    none, for a Z[tau] constant step > 0.  The float quotient -base/step
    proposes t; exact signs move it up while base + t*step < 0 and down
    while base + (t - 1)*step >= 0, which ends at the exact threshold since
    the value grows with t.  The proposal may be anything, even nan: the
    clip and the exact moves alone fix the result."""
    (ba, bb), (sa, sb) = base.T, step.tolist()

    def holds(t):
        return golden_sign(ba + t * sa, bb + t * sb) >= 0

    t = np.nan_to_num(-(ba + bb * PHI) / (sa + sb * PHI))
    t = np.clip(np.ceil(t), -bound, bound + 1).astype(np.int64)
    while (up := (t <= bound) & ~holds(t)).any():
        t[up] += 1
    while (down := (t > -bound) & holds(t - 1)).any():
        t[down] -= 1
    return t


def box_nonnegative(bound: int, dims: int, forms) -> np.ndarray:
    """Rows of the integer box [-bound, bound]^dims, in lexicographic order,
    at which every Z[tau] value of the compiled ``forms`` is >= 0.  Only the
    first dims - 1 coordinates are scanned: on each such prefix a form is
    base + t*step in the last coordinate t, so it admits every t from a
    threshold up (step > 0), every t up to one (step < 0), all t or none
    (step 0), and ``_threshold`` finds the thresholds exactly.  The rows
    of each prefix are the interval left of [-bound, bound].  Memory is
    O((2*bound + 1)^(dims - 1)) besides the rows returned."""
    m, off = forms
    side = 2 * bound + 1
    prefix = np.indices((side,) * (dims - 1), dtype=np.int64)
    prefix = prefix.reshape(dims - 1, side ** (dims - 1)).T - bound
    lo = np.full(len(prefix), -bound, dtype=np.int64)
    hi = np.full(len(prefix), bound, dtype=np.int64)
    for j in range(0, len(off), 2):
        base = apply((m[j:j + 2, :-1], off[j:j + 2]), prefix)
        step = m[j:j + 2, -1]
        sign = int(golden_sign(*step))
        if sign > 0:
            lo = np.maximum(lo, _threshold(base, step, bound))
        elif sign < 0:
            # t admitted iff u = -t has base + u*(-step) >= 0
            hi = np.minimum(hi, -_threshold(base, -step, bound))
        else:
            hi[golden_sign(base[:, 0], base[:, 1]) < 0] = -bound - 1
    count = np.maximum(hi - lo + 1, 0)
    last = np.repeat(lo - (np.cumsum(count) - count), count) + np.arange(count.sum())
    return np.concatenate([np.repeat(prefix, count, axis=0), last[:, None]], axis=1)


def exact_argsort(a, b) -> np.ndarray:
    """Indices that sort the distinct values a + b*tau ascending, for
    integer arrays a and b: argsorted by their float value, then every
    adjacent difference is certified positive by its exact sign."""
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    order = np.argsort(a + b * PHI, kind="stable")
    if not (golden_sign(np.diff(a[order]), np.diff(b[order])) > 0).all():
        raise AssertionError("the float order of the values is not strictly ascending")
    return order


def exact_argmin(a: np.ndarray, b: np.ndarray) -> int:
    """Index of the least a + b*tau: a float argmin proposes it and the
    exact sign of its difference to every value certifies it; a value
    found below it proposes again, so the loop ends at the exact minimum."""
    value = a + b * PHI
    best = int(np.argmin(value))
    while True:
        below = golden_sign(a - a[best], b - b[best]) < 0
        if not below.any():
            return best
        best = int(np.flatnonzero(below)[np.argmin(value[below])])


@lru_cache(maxsize=None)
def quadratic_forms(group: GroupId) -> np.ndarray:
    """Integer matrices (G0, G1), stacked and read-only, with
    w^T adj(A) w = u G0 u + tau * (u G1 u) for w_i = x_i + tau y_i and
    u = (x_1, y_1, ..., x_k, y_k); ``bilinear_forms`` of w^T adj(A) w'."""
    adj = golden_adjugate(cartan(group))

    def form(x, y):
        w, w2 = (tuple(map(GoldenInt, r[0::2], r[1::2])) for r in (x, y))
        return sum((a * e * b for a, row in zip(w, adj) for e, b in zip(row, w2)), ZERO)

    return bilinear_forms(form, 2 * group.rank)


def quadratic_form_rows(group: GroupId, x: np.ndarray) -> np.ndarray:
    """(N, 2) array of the Z[tau] values v^T adj(A) v, the integer forms
    x G0 x and x G1 x of ``quadratic_forms``: each is at most sum|G| *
    max|x|^2 in absolute value, and so is every partial sum."""
    forms = quadratic_forms(group)
    bound = int(np.abs(forms).sum(axis=(1, 2)).max()) * _absmax(x) ** 2
    _require(bound, _INT64_HEADROOM, "quadratic form")
    return np.stack([((x @ g) * x).sum(axis=1) for g in forms], axis=1)


def alpha_rows(group: GroupId, x: np.ndarray) -> np.ndarray:
    """(N, 2k) rows of the simple-root coordinates A^{-1} v of root-lattice
    rows, exact Z[tau] pairs, those of ``rootsystem.alpha_from_omega``: the
    numerators adj(A) v conj(det A) divided by N(det A) with one
    ``np.divmod``.  A row outside the root lattice leaves a remainder and
    raises ``ValueError``.  When N(det A) = 1 (H4) the numerators are the
    coordinates."""
    forms, norm = _alpha_numerators(group)
    num = apply(forms, x)
    if norm == 1:
        return num
    alpha, rest = np.divmod(num, norm)
    if rest.any():
        raise ValueError(f"a row is outside the {group.name} root lattice: N(det A) = {norm} does not divide it")
    return alpha


def cyclo_rows(x: np.ndarray) -> np.ndarray:
    """(N, 4) rows (p.a, p.b, q.a, q.b) of the cyclotomic images p + q*xi
    of H2 root-lattice rows, those of ``rootsystem.cyclo_from_omega``:
    ``rootsystem._cyclo_map`` of the ``alpha_rows``."""
    return apply(_cyclo_map(), alpha_rows(GroupId.H2, x))


def cartesian_rows(group: GroupId, x: np.ndarray) -> np.ndarray:
    """(N, dim) Cartesian coordinates of the root-lattice rows of a model
    group (A2, H3, H4), bit for bit those of the scalar
    ``rootsystem.cartesian``: each coordinate a + b*tau of the
    ``alpha_rows`` is embedded as a + b*PHI, and the model columns are
    summed term by term from 0.0, the order of ``sum``."""
    alpha = alpha_rows(group, x)
    alpha = alpha[:, 0::2] + alpha[:, 1::2] * PHI
    model = _MODELS[group]
    out = np.empty((len(x), len(model[0])))
    for j, column in enumerate(zip(*model)):
        acc = 0.0
        for i, entry in enumerate(column):
            acc = acc + alpha[:, i] * entry
        out[:, j] = acc
    return out
