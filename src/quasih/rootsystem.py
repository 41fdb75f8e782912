"""Root systems, Cartan matrices and coordinate bases for A2, H2, H3, H4.

Points carry exact GoldenInt coordinates in the omega basis (the basis dual
to the simple roots).  Simple roots of the H-groups are normalized to unit
length, so their Cartan matrices read a_ij = 2(alpha_i|alpha_j); A2 keeps
the Lie-theory normalization (alpha|alpha) = 2.  In both conventions the
j-th row of the Cartan matrix lists the omega coordinates of alpha_j, which
is what makes every basis change below exact.
"""

from __future__ import annotations

import enum
import math
import operator
from dataclasses import dataclass
from functools import lru_cache

from .golden import (
    CycloInt,
    GoldenInt,
    GoldenRational,
    ONE,
    PHI,
    TAU,
    TAU_CONJ,
    ZERO,
    compile_forms,
    xi_pow,
)

Matrix = tuple[tuple[GoldenInt, ...], ...]
RationalMatrix = tuple[tuple[GoldenRational, ...], ...]


class GroupId(enum.Enum):
    A2 = "a2"
    H2 = "h2"
    H3 = "h3"
    H4 = "h4"

    @property
    def rank(self) -> int:
        return int(self.value[1])  # the digit of "a2", "h2", "h3", "h4"

    @property
    def is_h(self) -> bool:
        return self is not GroupId.A2


H_GROUPS = (GroupId.H2, GroupId.H3, GroupId.H4)

# Off-diagonal chain entries: each group is a path diagram, the last bond
# of the H-groups carrying -tau.
_CHAIN: dict[GroupId, tuple[GoldenInt, ...]] = {
    GroupId.A2: (GoldenInt(-1),),
    GroupId.H2: (-TAU,),
    GroupId.H3: (GoldenInt(-1), -TAU),
    GroupId.H4: (GoldenInt(-1), GoldenInt(-1), -TAU),
}


@dataclass(frozen=True)
class OmegaVector:
    """A point of R^rank with exact omega-basis coordinates."""

    group: GroupId
    coords: tuple[GoldenInt, ...]

    def __post_init__(self) -> None:
        if len(self.coords) != self.group.rank:
            raise ValueError(f"{self.group} expects {self.group.rank} coordinates")

    @classmethod
    def make(cls, group: GroupId, coords) -> OmegaVector:
        return cls(group, tuple(GoldenInt.coerce(c) for c in coords))

    @classmethod
    def zero(cls, group: GroupId) -> OmegaVector:
        return cls(group, (ZERO,) * group.rank)

    @classmethod
    def from_flat(cls, group: GroupId, flat: tuple[int, ...]) -> OmegaVector:
        pairs = zip(flat[0::2], flat[1::2])
        return cls(group, tuple(GoldenInt(a, b) for a, b in pairs))

    def flat(self) -> tuple[int, ...]:
        out: list[int] = []
        for c in self.coords:
            out.append(c.a)
            out.append(c.b)
        return tuple(out)

    def is_dominant(self) -> bool:
        return all(c.sign() >= 0 for c in self.coords)

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.coords)

    def __add__(self, other: OmegaVector) -> OmegaVector:
        return OmegaVector(self.group, tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other: OmegaVector) -> OmegaVector:
        return OmegaVector(self.group, tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __neg__(self) -> OmegaVector:
        return OmegaVector(self.group, tuple(-c for c in self.coords))

    def __str__(self) -> str:
        return "(" + ", ".join(str(c) for c in self.coords) + ")"


@dataclass(frozen=True)
class AlphaVector:
    """A vector written in simple-root coordinates, all of them GoldenInt."""

    group: GroupId
    coords: tuple[GoldenInt, ...]

    @classmethod
    def make(cls, group: GroupId, coords) -> AlphaVector:
        return cls(group, tuple(GoldenInt.coerce(c) for c in coords))

    def __neg__(self) -> AlphaVector:
        return AlphaVector(self.group, tuple(-c for c in self.coords))

    def __str__(self) -> str:
        return "(" + ", ".join(str(c) for c in self.coords) + ")"


# ---------------------------------------------------------------------------
# matrices

def golden_identity(k: int) -> Matrix:
    return tuple(
        tuple(ONE if i == j else ZERO for j in range(k)) for i in range(k)
    )


def mat_vec(m: Matrix, v: tuple[GoldenInt, ...]) -> tuple[GoldenInt, ...]:
    return tuple(sum((row[j] * v[j] for j in range(len(v))), ZERO) for row in m)


def golden_det(m: Matrix) -> GoldenInt:
    """Exact determinant by cofactor expansion; sizes here never exceed 5."""
    k = len(m)
    if k == 1:
        return m[0][0]
    if k == 2:
        return m[0][0] * m[1][1] - m[0][1] * m[1][0]
    total = ZERO
    for j in range(k):
        if m[0][j].is_zero():
            continue
        minor = tuple(row[:j] + row[j + 1:] for row in m[1:])
        term = m[0][j] * golden_det(minor)
        total = total + term if j % 2 == 0 else total - term
    return total


def golden_adjugate(m: Matrix) -> Matrix:
    k = len(m)
    cof = [[ZERO] * k for _ in range(k)]
    for i in range(k):
        for j in range(k):
            minor = tuple(
                tuple(m[r][c] for c in range(k) if c != j)
                for r in range(k) if r != i
            )
            d = golden_det(minor)
            cof[i][j] = d if (i + j) % 2 == 0 else -d
    return tuple(tuple(cof[j][i] for j in range(k)) for i in range(k))


# ---------------------------------------------------------------------------
# Cartan data

@lru_cache(maxsize=None)
def cartan(group: GroupId) -> Matrix:
    k = group.rank
    chain = _CHAIN[group]
    two = GoldenInt(2)
    entries = [[ZERO] * k for _ in range(k)]
    for i in range(k):
        entries[i][i] = two
    for i, bond in enumerate(chain):
        entries[i][i + 1] = bond
        entries[i + 1][i] = bond
    return tuple(tuple(row) for row in entries)


@lru_cache(maxsize=None)
def cartan_inverse(group: GroupId) -> RationalMatrix:
    m = cartan(group)
    det = golden_det(m)
    adj = golden_adjugate(m)
    inv_det = GoldenRational(1) / GoldenRational(det)
    return tuple(tuple(GoldenRational(e) * inv_det for e in row) for row in adj)


def omega_from_alpha(v: AlphaVector) -> OmegaVector:
    """Exact basis change: omega coords of sum_j c_j alpha_j are (A c)."""
    a = cartan(v.group)
    k = v.group.rank
    coords = tuple(
        sum((v.coords[j] * a[j][i] for j in range(k)), ZERO) for i in range(k)
    )
    return OmegaVector(v.group, coords)


@lru_cache(maxsize=None)
def _alpha_numerators(group: GroupId):
    """The compiled linear map (M, 0) taking flat omega coefficients to
    those of adj(A) v conj(det A), read off ``mat_vec``, and the integer
    N(det A)."""
    m = cartan(group)
    det = golden_det(m)
    scaled = tuple(tuple(e * det.conj() for e in row) for row in golden_adjugate(m))

    def numerators(x):
        return mat_vec(scaled, OmegaVector.from_flat(group, x).coords)

    return compile_forms(numerators, 2 * group.rank), det.norm()


def alpha_from_omega(v: OmegaVector) -> tuple[GoldenRational, ...]:
    """Exact A^{-1} v = adj(A) v conj(det A) / N(det A), in integer arithmetic."""
    (rows, _), norm = _alpha_numerators(v.group)
    flat = v.flat()
    nums = iter([sum(map(operator.mul, row, flat)) for row in rows.tolist()])
    return tuple(GoldenRational(GoldenInt(a, b), norm) for a, b in zip(nums, nums))


def alpha_vector_from_omega(v: OmegaVector) -> AlphaVector:
    coords = alpha_from_omega(v)
    if not all(c.is_integral() for c in coords):
        raise ValueError(f"{v} is not in the root lattice")
    return AlphaVector(v.group, tuple(c.as_golden() for c in coords))


def simple_reflection_matrix(group: GroupId, j: int) -> Matrix:
    """Matrix of r_j on omega coordinates: (r_j v)_k = v_k - v_j a_jk."""
    a = cartan(group)
    k = group.rank
    m = [[ONE if r == c else ZERO for c in range(k)] for r in range(k)]
    for r in range(k):
        m[r][j] = m[r][j] - a[j][r]
    return tuple(tuple(row) for row in m)


def orbit_of(v: OmegaVector) -> frozenset[OmegaVector]:
    """The W-orbit of v: its closure under the simple reflections."""
    refl = [simple_reflection_matrix(v.group, j) for j in range(v.group.rank)]
    seen = {v.coords}
    stack = [v.coords]
    while stack:
        p = stack.pop()
        for m in refl:
            q = mat_vec(m, p)
            if q not in seen:
                seen.add(q)
                stack.append(q)
    return frozenset(OmegaVector(v.group, c) for c in seen)


def to_dominant(v: OmegaVector) -> tuple[OmegaVector, tuple[int, ...]]:
    """Reflect in the first negative coordinate until none is left.

    Returns the dominant representative together with the word applied,
    as reflection indices in application order (first applied first).
    """
    refl = [simple_reflection_matrix(v.group, j) for j in range(v.group.rank)]
    coords, word = v.coords, []
    while (j := next((j for j, c in enumerate(coords) if c.sign() < 0), None)) is not None:
        coords = mat_vec(refl[j], coords)
        word.append(j)
    return OmegaVector(v.group, coords), tuple(word)


@lru_cache(maxsize=None)
def roots_omega(group: GroupId) -> tuple[OmegaVector, ...]:
    """The full root system in omega coordinates, in row order: all roots
    of these groups have one length, so they form one W-orbit, that of
    alpha_1, whose omega row is the first row of the Cartan matrix."""
    alpha_1 = OmegaVector(group, cartan(group)[0])
    return tuple(sorted(orbit_of(alpha_1), key=OmegaVector.flat))


@lru_cache(maxsize=None)
def highest_root(group: GroupId) -> OmegaVector:
    """The one dominant root, the dominant element of the orbit of alpha_1:
    reflecting a root v in a simple root alpha_j with v_j < 0 raises its
    height (H4: 22 steps)."""
    return to_dominant(OmegaVector(group, cartan(group)[0]))[0]


def norm_sq(v: OmegaVector) -> GoldenRational:
    """Exact squared length (v|v) from the inverse Cartan quadratic form.

    For the unit-root H-groups (v|v) = v^T A^{-1} v / 2; A2 keeps the
    (alpha|alpha) = 2 convention where the factor 1/2 is absent.
    """
    inv = cartan_inverse(v.group)
    k = v.group.rank
    total = GoldenRational(0)
    for i in range(k):
        for j in range(k):
            total = total + inv[i][j] * v.coords[i] * v.coords[j]
    return total / 2 if v.group.is_h else total


# ---------------------------------------------------------------------------
# Cartesian embeddings

_SQRT_3_MINUS_TAU = math.sqrt(3.0 - PHI)

# Orthonormal-model simple roots (floats); H3/H4 models have unit roots.
_H3_SIMPLE = (
    (0.0, 0.0, 1.0),
    (-TAU_CONJ.embed() / 2.0, -TAU.embed() / 2.0, -0.5),
    (0.0, 1.0, 0.0),
)
# The last coordinate of alpha4 must be +tau: only then does the Gram
# matrix reproduce the H4 Cartan matrix (2(a3|a4) = -tau, orthogonality
# to a1 and a2); the -tau variant, though also a root, breaks all three.
_H4_SIMPLE = (
    (-TAU_CONJ.embed() / 2.0, -TAU.embed() / 2.0, 0.0, -0.5),
    (0.0, -TAU_CONJ.embed() / 2.0, -TAU.embed() / 2.0, 0.5),
    (0.0, 0.5, -TAU_CONJ.embed() / 2.0, -TAU.embed() / 2.0),
    (0.0, -0.5, -TAU_CONJ.embed() / 2.0, TAU.embed() / 2.0),
)
_A2_SIMPLE = (
    (math.sqrt(2.0), 0.0),
    (-math.sqrt(2.0) / 2.0, math.sqrt(6.0) / 2.0),
)
_MODELS = {GroupId.A2: _A2_SIMPLE, GroupId.H3: _H3_SIMPLE, GroupId.H4: _H4_SIMPLE}
_H2_R = math.sqrt(1.0 - PHI * PHI / 4.0)


def cartesian(v: OmegaVector, normalize: bool = True) -> tuple[float, ...]:
    """Floating Cartesian coordinates of an omega-basis point.

    H2 uses the planar change-of-basis matrix ((0, r), (1, tau/2)) with
    r = sqrt(1 - tau^2/4); that matrix sends unit roots to vectors of
    length sqrt(3 - tau), so ``normalize`` divides it back out to land the
    ten roots on the unit circle.  H3/H4/A2 convert the (exact) simple-root
    coordinates against fixed orthonormal models, which already carry the
    right scale, so ``normalize`` has no effect there.
    """
    if v.group is GroupId.H2:
        v1 = v.coords[0].embed()
        v2 = v.coords[1].embed()
        x = (_H2_R * v2, v1 + PHI * v2 / 2.0)
        if normalize:
            x = (x[0] / _SQRT_3_MINUS_TAU, x[1] / _SQRT_3_MINUS_TAU)
        return x
    model = _MODELS[v.group]
    coeffs = [c.embed() for c in alpha_from_omega(v)]
    return tuple(sum(map(operator.mul, coeffs, column)) for column in zip(*model))


# ---------------------------------------------------------------------------
# H2 <-> cyclotomic identification (alpha1 = xi^0, alpha2 = xi^4)

def cyclo_from_omega(v: OmegaVector) -> CycloInt:
    """Planar H2 point as a cyclotomic integer, alpha1 -> 1, alpha2 -> xi^4."""
    if v.group is not GroupId.H2:
        raise ValueError("cyclotomic form only exists for H2")
    c1, c2 = (c.as_golden() for c in alpha_from_omega(v))
    return CycloInt.from_golden(c1) + xi_pow(4) * c2


@lru_cache(maxsize=None)
def _cyclo_map():
    """``cyclo_from_omega`` compiled on alpha rows (c1.a, c1.b, c2.a, c2.b)."""

    def cyclo(c):
        alpha = AlphaVector(GroupId.H2, (GoldenInt(*c[:2]), GoldenInt(*c[2:])))
        z = cyclo_from_omega(omega_from_alpha(alpha))
        return z.p, z.q

    return compile_forms(cyclo, 4)
