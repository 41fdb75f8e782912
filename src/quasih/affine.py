"""Affine extension machinery: operators, extended Cartan matrices and the
brute-force enumeration of generalized (determinant-zero) Cartan matrices.

Reflections act linearly on omega coordinates; the affine reflection in the
hyperplane through alpha_H/2 and the translation T = r_H_aff . r_0 carry a
constant offset on top.  All operator algebra is exact over GoldenInt.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from importlib import resources

import numpy as np

from .golden import GoldenInt, ONE, ZERO, compile_forms
from .kernel import _INT64_HEADROOM, _SLAB, ResourceLimitError, _require, quadratic_forms
from .rootsystem import (
    GroupId,
    Matrix,
    OmegaVector,
    alpha_vector_from_omega,
    cartan,
    golden_det,
    golden_identity,
    highest_root,
    mat_mul,
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

    def compose(self, other: AffineOperator) -> AffineOperator:
        """self after other: (M1, t1) . (M2, t2) = (M1 M2, M1 t2 + t1)."""
        m = mat_mul(self.matrix, other.matrix)
        t = mat_vec(self.matrix, other.offset)
        t = tuple(a + b for a, b in zip(t, self.offset))
        return AffineOperator(self.group, m, t)

    @lru_cache(maxsize=None)
    def compiled(self) -> tuple[np.ndarray, np.ndarray]:
        """Integer-affine form (M, off) on (a1, b1, ..., ak, bk) rows, so
        that the image of a row x is M x + off (see ``kernel.apply``); read
        off ``apply`` by ``compile_forms`` once per operator."""
        return compile_forms(
            lambda x: self.apply(OmegaVector.from_flat(self.group, x)).coords, 2 * self.group.rank
        )


def identity_operator(group: GroupId) -> AffineOperator:
    k = group.rank
    return AffineOperator(group, golden_identity(k), (ZERO,) * k)


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


def verify_identities(group: GroupId, extended: bool = False) -> tuple[PairIdentity, ...]:
    """Check (r_i r_j)^M = 1 with M read off the (extended) Cartan matrix,
    and that no smaller positive power is the identity.  The extended
    system adds r_0 before the simple reflections."""
    ops = operators(group)
    gens = ((ops.root_reflection,) if extended else ()) + ops.reflections
    matrix = extended_cartan(group) if extended else cartan(group)
    identity = identity_operator(group)
    results = []
    for i in range(len(gens)):
        for j in range(i, len(gens)):
            order = coxeter_order(matrix[i][j])
            prod = gens[i].compose(gens[j])
            power = identity
            minimal = True
            for _ in range(order - 1):
                power = power.compose(prod)
                if power == identity:
                    minimal = False
            holds = power.compose(prod) == identity
            results.append(PairIdentity(i, j, order, holds, minimal))
    return tuple(results)


# ---------------------------------------------------------------------------
# brute-force enumeration of generalized Cartan matrices

# Largest solved grid (2b + 1)^(2k - 1) the enumeration scans; the same
# value as the cut-and-project box cap.  H4 admits coeff_bound <= 4.
ENUMERATION_CAP = 10_000_000

@dataclass(frozen=True)
class CartanCandidate:
    coeffs: tuple[int, ...]
    matrix: Matrix = field(compare=False)

    def border(self) -> tuple[GoldenInt, ...]:
        it = iter(self.coeffs)
        return tuple(GoldenInt(x, y) for x, y in zip(it, it))

    def is_nonpositive(self) -> bool:
        return all(e.sign() <= 0 for e in self.border())


@lru_cache(maxsize=8)
def enumerate_generalized(group: GroupId, coeff_bound: int = 3) -> tuple[CartanCandidate, ...]:
    """All bordered Cartan templates with exact determinant 0.

    det of the bordered matrix is 2 det(A) - w^T adj(A) w by the Schur
    complement, a pair of integer quadratic forms q0, q1 in the 2k border
    coefficients u = (x1, y1, ..., xk, yk), each |u_i| <= coeff_bound; the
    determinant vanishes exactly when q0(u) = 2 det(A).a and
    q1(u) = 2 det(A).b.  Each form is quadratic in the last coefficient t,
    q = c + b*t + a*t^2, so the last coefficient is solved rather than
    scanned: the grid of the 2k - 2 middle coefficients is built one slab
    of ``_SLAB`` points at a time with its quadratic part and its linear
    coefficients against the lead and the last coefficient, and for each
    lead value all 2b + 1 values of t are tested at once by broadcasting,
    q0 on the solved slab and q1 only at the points q0 accepts.  This is
    int64 arithmetic only, bound-checked in front, and memory is
    O(_SLAB * (2b + 1)) whatever k: 9 bytes a point of the solved slab for
    q0 and its test, besides the hits.  A solved grid of more than
    ``ENUMERATION_CAP`` points raises ``ResourceLimitError`` before
    anything is allocated, so the cap bounds the time.  Every hit is
    re-checked with the GoldenInt cofactor determinant.  Every candidate
    is positive semidefinite, which the exact minors of A certify.
    """
    if coeff_bound < 1:
        raise ValueError("coeff_bound must be at least 1")
    k = group.rank
    side = 2 * coeff_bound + 1
    volume = side ** (2 * k - 1)
    if volume > ENUMERATION_CAP:
        raise ResourceLimitError(
            f"generalized-Cartan grid of {volume} points exceeds cap {ENUMERATION_CAP}"
        )
    det_a = golden_det(cartan(group))
    target = np.array([2 * det_a.a, 2 * det_a.b], dtype=np.int64)
    forms = quadratic_forms(group)  # column 0 is the lead, column -1 the last
    _require(2 * int(np.abs(forms).sum()) * coeff_bound**2, _INT64_HEADROOM, "Cartan form")
    cross = forms + forms.transpose(0, 2, 1)

    vals = np.arange(-coeff_bound, coeff_bound + 1, dtype=np.int64)
    last_quad = forms[:, -1, -1, None] * vals**2
    grid, cells = (side,) * (2 * k - 2), volume // side
    hits: list[tuple[int, ...]] = []
    for lo in range(0, cells, _SLAB):
        # one slab of the middle grid, in the C order of np.indices
        flat = np.arange(lo, min(lo + _SLAB, cells))
        mid = np.stack(np.unravel_index(flat, grid), axis=1) - coeff_bound
        # per form, over the slab: quadratic part and linear coefficients
        mid_quad = np.stack([((mid @ g) * mid).sum(axis=1) for g in forms[:, 1:-1, 1:-1]])
        lead_lin = cross[:, 0, 1:-1] @ mid.T
        last_lin = cross[:, -1, 1:-1] @ mid.T
        q = np.empty((len(mid), side), dtype=np.int64)  # form q0, one buffer for every lead
        for lead in vals.tolist():
            c = mid_quad + lead * lead_lin + (forms[:, 0, 0] * lead * lead)[:, None]
            b = last_lin + (cross[:, 0, -1] * lead)[:, None]
            np.multiply(b[0, :, None], vals, out=q)
            q += c[0, :, None]
            q += last_quad[0]
            rows, last = np.nonzero(q == target[0])
            # q1 only at the grid points that q0 accepts
            keep = c[1, rows] + b[1, rows] * vals[last] + last_quad[1, last] == target[1]
            rows, last = rows[keep], last[keep]
            hits.extend(
                (lead, *middle, t) for middle, t in zip(mid[rows].tolist(), vals[last].tolist())
            )
    hits.sort()

    candidates = []
    for coeffs in hits:
        it = iter(coeffs)
        border = tuple(GoldenInt(x, y) for x, y in zip(it, it))
        matrix = _border_matrix(group, border)
        if not golden_det(matrix).is_zero():
            raise AssertionError(f"Schur/cofactor determinant mismatch at {coeffs}")
        candidates.append(CartanCandidate(coeffs, matrix))

    # A is positive definite (its leading principal minors are > 0), and a
    # bordered matrix has det = det(A) * (2 - w^T A^{-1} w), so det = 0 puts
    # its Schur complement at 0: every candidate is positive semidefinite.
    a = cartan(group)
    if not all(golden_det(tuple(row[:m] for row in a[:m])).sign() > 0 for m in range(1, k + 1)):
        raise AssertionError(f"the {group.value} Cartan matrix is not positive definite")
    return tuple(candidates)


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


@dataclass(frozen=True)
class TableDiff:
    missing: tuple[tuple[int, ...], ...]
    extras: tuple[tuple[int, ...], ...]
    table_count: int
    enumerated_count: int

    @property
    def table_covered(self) -> bool:
        return not self.missing


def reference_diff(group: GroupId, coeff_bound: int = 3) -> TableDiff:
    candidates = enumerate_generalized(group, coeff_bound)
    found = {c.coeffs for c in candidates}
    table = set(reference_table(group))
    missing = tuple(sorted(table - found))
    extras = tuple(sorted(found - table))
    return TableDiff(missing, extras, len(table), len(candidates))
