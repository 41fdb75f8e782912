"""Affine extension machinery: operators, extended Cartan matrices and the
brute-force enumeration of generalized (determinant-zero) Cartan matrices.

Reflections act linearly on omega coordinates; the affine reflection in the
hyperplane through alpha_H/2 and the translation T = r_H_aff . r_0 carry a
constant offset on top.  Operators are exact over GoldenInt; the Coxeter
relations multiply their compiled integer forms.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from importlib import resources

import numpy as np

from .golden import GoldenInt, ONE, ZERO, compile_forms
from .kernel import (
    _INT64_HEADROOM, _SLAB, ResourceLimitError, _require, quadratic_form_rows, quadratic_forms,
)
from .rootsystem import (
    GroupId,
    Matrix,
    OmegaVector,
    alpha_vector_from_omega,
    cartan,
    golden_det,
    golden_identity,
    highest_root,
    mat_vec,
    simple_reflection_matrix,
)


@dataclass(frozen=True)
class AffineOperator:
    """An exact affine map v -> matrix.v + offset on omega coordinates."""

    group: GroupId
    matrix: Matrix
    offset: tuple[GoldenInt, ...]

    def apply(self, v: OmegaVector) -> OmegaVector:
        coords = mat_vec(self.matrix, v.coords)
        return OmegaVector(v.group, tuple(c + t for c, t in zip(coords, self.offset)))

    @lru_cache(maxsize=None)
    def compiled(self) -> tuple[np.ndarray, np.ndarray]:
        """Integer-affine form (M, off) on (a1, b1, ..., ak, bk) rows, so
        that the image of a row x is M x + off (see ``kernel.apply``); read
        off ``apply`` by ``compile_forms`` once per operator."""
        return compile_forms(
            lambda x: self.apply(OmegaVector.from_flat(self.group, x)).coords, 2 * self.group.rank
        )


@dataclass(frozen=True)
class OperatorSet:
    """Simple reflections, the two alpha_H mirrors and the translation."""

    reflections: tuple[AffineOperator, ...]
    root_reflection: AffineOperator
    affine_reflection: AffineOperator
    translation: AffineOperator


def _root_reflection_matrix(group: GroupId, root_omega: OmegaVector) -> Matrix:
    """Reflection orthogonal to a root through the origin.

    In either normalization the reflection reads v -> v - <c, v> * w with
    w the omega coordinates of the root and c its alpha coordinates (the
    alpha coordinates are exactly the coefficients of the linear form
    2(v|root), respectively (v|root) for A2).
    """
    w = root_omega.coords
    c = alpha_vector_from_omega(root_omega).coords
    k = group.rank
    return tuple(
        tuple((ONE if i == j else ZERO) - w[i] * c[j] for j in range(k))
        for i in range(k)
    )


@lru_cache(maxsize=None)
def operators(group: GroupId) -> OperatorSet:
    k = group.rank
    zero = (ZERO,) * k
    refl = tuple(AffineOperator(group, simple_reflection_matrix(group, j), zero) for j in range(k))
    ah = highest_root(group)
    r0 = AffineOperator(group, _root_reflection_matrix(group, ah), zero)
    raff = AffineOperator(group, r0.matrix, ah.coords)
    trans = AffineOperator(group, golden_identity(k), ah.coords)
    return OperatorSet(refl, r0, raff, trans)


# ---------------------------------------------------------------------------
# extended Cartan matrices and their defining conditions

def _border_matrix(group: GroupId, border: tuple[GoldenInt, ...]) -> Matrix:
    base = cartan(group)
    top = (GoldenInt(2),) + border
    rows = [top]
    for i in range(group.rank):
        rows.append((border[i],) + base[i])
    return tuple(rows)


@lru_cache(maxsize=None)
def extended_cartan(group: GroupId) -> Matrix:
    """Adjoin alpha_0 = -alpha_H: the border entries are -<alpha_H omega>."""
    return _border_matrix(group, tuple(-c for c in highest_root(group).coords))


@dataclass(frozen=True)
class ConditionReport:
    """Per-condition outcome of the extended-Cartan requirements."""

    diagonal_ok: bool
    symmetric_ok: bool
    nonpositive_ok: bool
    det: GoldenInt
    det_zero_ok: bool

    @property
    def all_ok(self) -> bool:
        return self.diagonal_ok and self.symmetric_ok and self.nonpositive_ok and self.det_zero_ok


def verify_conditions(e: Matrix) -> ConditionReport:
    k = len(e)
    diagonal_ok = all(e[i][i] == GoldenInt(2) for i in range(k))
    symmetric_ok = all(e[i][j] == e[j][i] for i in range(k) for j in range(k))
    nonpositive_ok = all(
        e[i][j].sign() <= 0 for i in range(k) for j in range(k) if i != j
    )
    det = golden_det(e)
    return ConditionReport(diagonal_ok, symmetric_ok, nonpositive_ok, det, det.is_zero())


_ORDER_BY_ENTRY = {
    GoldenInt(2): 1,
    ZERO: 2,
    GoldenInt(-1): 3,
    GoldenInt(0, -1): 5,   # -tau
    GoldenInt(1, -1): 5,   # tau'
}


def coxeter_order(entry: GoldenInt) -> int:
    try:
        return _ORDER_BY_ENTRY[entry]
    except KeyError:
        raise ValueError(f"no product order is defined for entry {entry}") from None


@dataclass(frozen=True)
class PairIdentity:
    i: int
    j: int
    order: int
    holds: bool
    minimal: bool


def _product(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    # a partial sum of an entry of p @ q is at most row sum of |p| times that of |q|
    rows = [int(np.abs(x).sum(axis=1).max()) for x in (p, q)]
    _require(rows[0] * rows[1], _INT64_HEADROOM, "Coxeter relation")
    return p @ q


def verify_identities(group: GroupId, extended: bool = False) -> tuple[PairIdentity, ...]:
    """Check (r_i r_j)^M = 1 with M read off the (extended) Cartan matrix,
    and that no smaller positive power is the identity.  The extended
    system adds r_0 before the simple reflections, all compiled to exact
    integer matrices."""
    ops = operators(group)
    identity = np.eye(2 * group.rank + 1, dtype=np.int64)
    # [[M, off], [0, 1]] of each compiled (M, off): operators compose as these multiply
    gens = [np.vstack([np.column_stack(op.compiled()), identity[-1]])
            for op in ((ops.root_reflection,) if extended else ()) + ops.reflections]
    matrix = extended_cartan(group) if extended else cartan(group)
    results = []
    for i in range(len(gens)):
        for j in range(i, len(gens)):
            order = coxeter_order(matrix[i][j])
            powers = [_product(gens[i], gens[j])]  # (r_i r_j)^1, ..., (r_i r_j)^order
            for _ in range(order - 1):
                powers.append(_product(powers[-1], powers[0]))
            minimal = not any(np.array_equal(p, identity) for p in powers[:-1])
            results.append(PairIdentity(i, j, order, np.array_equal(powers[-1], identity), minimal))
    return tuple(results)


# ---------------------------------------------------------------------------
# brute-force enumeration of generalized Cartan matrices

# Largest requested grid (2b + 1)^(2k - 1) the enumeration accepts for bound
# b; the same value as the cut-and-project box cap.  H4 admits coeff_bound <= 4.
ENUMERATION_CAP = 10_000_000


@lru_cache(maxsize=8)
def enumerate_generalized(group: GroupId, coeff_bound: int = 3) -> np.ndarray:
    """The borders (x1, y1, ..., xk, yk), |x_i|, |y_i| <= coeff_bound, of
    the bordered Cartan templates with exact determinant 0, as read-only
    (N, 2k) int64 rows in lexicographic order.

    det of the bordered matrix is 2 det(A) - w^T adj(A) w by the Schur
    complement, so it vanishes exactly when ``quadratic_form_rows`` gives
    2 det(A) for w_i = x_i + y_i*tau.  Such a border has |x_i| <= 2,
    |y_i| <= 1 and |2x_i + y_i| <= 4, so only that box is scanned.  Proof:
    A is symmetric with diagonal 2, and A and its conjugate A' are positive
    definite (every leading principal minor d has d > 0 and d' > 0, checked
    exactly in front of the box).  Under either real embedding s, det = 0
    reads s(w)^T s(A)^-1 s(w) = 2, so Cauchy-Schwarz in the inner product
    of s(A) gives s(w_i)^2 <= 4.  The embeddings of w_i differ by y_i*sqrt5
    and add to 2x_i + y_i, so 5y_i^2 <= 16 and |2x_i + y_i| <= 4.  The
    rows of the box are index tuples into the admitted (x, y) pairs, whose
    C order from ``np.indices`` is lexicographic, tested ``_SLAB`` rows at
    a time in int64, bound-checked in front.  A requested grid
    (2b + 1)^(2k - 1) over ``ENUMERATION_CAP`` points raises
    ``ResourceLimitError`` first.  Every hit is re-checked with the
    GoldenInt cofactor determinant.  Every candidate is positive
    semidefinite: A is positive definite, and det = 0 puts
    2 - w^T A^{-1} w at 0.
    """
    if coeff_bound < 1:
        raise ValueError("coeff_bound must be at least 1")
    k = group.rank
    volume = (2 * coeff_bound + 1) ** (2 * k - 1)
    if volume > ENUMERATION_CAP:
        raise ResourceLimitError(
            f"generalized-Cartan grid of {volume} points exceeds cap {ENUMERATION_CAP}"
        )
    a = cartan(group)
    minors = [golden_det(tuple(row[:m] for row in a[:m])) for m in range(1, k + 1)]
    symmetric = all(a[i][i] == GoldenInt(2) and a[i][j] == a[j][i] for i in range(k) for j in range(k))
    if not (symmetric and all(d.sign() > 0 and d.conj().sign() > 0 for d in minors)):
        raise AssertionError(f"the {group.value} Cartan matrix is not positive definite")
    forms = quadratic_forms(group)
    _require(2 * int(np.abs(forms).sum()) * coeff_bound**2, _INT64_HEADROOM, "Cartan form")
    det_a = golden_det(a)
    target = (2 * det_a.a, 2 * det_a.b)
    bx, by = min(coeff_bound, 2), min(coeff_bound, 1)
    pairs = np.array([(x, y) for x in range(-bx, bx + 1) for y in range(-by, by + 1)
                      if abs(2 * x + y) <= 4], dtype=np.int64)
    index = np.indices((len(pairs),) * k, dtype=np.int8).reshape(k, -1).T
    hits = []
    for lo in range(0, len(index), _SLAB):
        slab = pairs[index[lo:lo + _SLAB]].reshape(-1, 2 * k)
        hits.append(slab[(quadratic_form_rows(group, slab) == target).all(axis=1)])
    hits = np.concatenate(hits)
    for row in hits.tolist():
        if not golden_det(_border_matrix(group, OmegaVector.from_flat(group, row).coords)).is_zero():
            raise AssertionError(f"Schur/cofactor determinant mismatch at {row}")
    hits.setflags(write=False)
    return hits


# ---------------------------------------------------------------------------
# bundled reference tables

_TABLE_FILES = {
    GroupId.H2: "generalized_cartan_h2.txt",
    GroupId.H3: "generalized_cartan_h3.txt",
    GroupId.H4: "generalized_cartan_h4.txt",
}


@lru_cache(maxsize=None)
def reference_table(group: GroupId) -> tuple[tuple[int, ...], ...]:
    """Rows of the bundled generalized-Cartan reference tables, verbatim."""
    name = _TABLE_FILES[group]
    text = resources.files("quasih.data").joinpath(name).read_text()
    rows = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        row = tuple(int(tok) for tok in line.split())
        if len(row) != 2 * group.rank:
            raise ValueError(f"bad row width in {name}: {line!r}")
        rows.append(row)
    return tuple(rows)


def reference_diff(group: GroupId, coeff_bound: int = 3) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """(missing, extras): the sorted reference-table rows the enumeration
    does not find, and the sorted enumerated rows the table lacks."""
    found = set(map(tuple, enumerate_generalized(group, coeff_bound).tolist()))
    table = set(reference_table(group))
    return tuple(sorted(table - found)), tuple(sorted(found - table))
