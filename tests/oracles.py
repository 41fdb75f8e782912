"""Scalar reference code that only the tests call.

The float and exact decagon membership tests, the closed-form line
membership, the inverse of ``cyclo_from_omega`` and the cyclotomic image
of an H2 fragment.  The package decides all of these on int64 rows; these
are the one-value-at-a-time readings of the same definitions.  ``values``,
``cyclo_set`` and ``points`` read the package's point arrays as scalars,
and ``norms`` the shell norms of ``fragment.shells``.
``word_levels`` and ``word_fragment`` build a fragment level by level from
its word definition, one reflection ``closure`` per level, and are the
oracle of ``fragment.generate``.  ``compose`` and ``identity_operator``
are the GoldenInt algebra of affine operators, and ``scalar_identities``
the Coxeter-relation check on them that ``affine.verify_identities`` runs
on compiled integer matrices.  ``rootsum_witnesses`` and ``decompose``
are the scalar two-line decomposition, one CycloInt point at a time, that
``lineanalysis.two_line_split`` runs on arrays.
"""

import cmath
from dataclasses import dataclass

import numpy as np

from quasih.cutproject import _edge_forms
from quasih.golden import TAU, ZERO, CycloInt, GoldenInt, GoldenRational, xi_pow
from quasih.affine import AffineOperator, PairIdentity, coxeter_order, extended_cartan, operators
from quasih import kernel
from quasih.kernel import (
    ResourceLimitError, apply, isin_sorted, pack_rows, root_sums, unique_keys, unpack_keys,
)
from quasih import lineanalysis
from quasih.lineanalysis import _XI_ROWS, _level
from quasih.rootsystem import (
    AlphaVector,
    GroupId,
    OmegaVector,
    cartan,
    cyclo_from_omega,
    golden_identity,
    mat_vec,
    omega_from_alpha,
)


@dataclass(frozen=True)
class DecagonWindow:
    """Regular decagon of circumradius n with vertices on the root rays."""

    n: int

    def vertices(self) -> tuple[CycloInt, ...]:
        return tuple(xi_pow(j) * self.n for j in range(10))

    def vertices_complex(self) -> tuple[complex, ...]:
        """The vertices n*exp(i*pi*j/5) as floats, for ``decagon_contains``."""
        return tuple(cmath.rect(self.n, cmath.pi * j / 5) for j in range(10))


def decagon_contains(p: complex, n: int, tol: float = 1e-9) -> bool:
    """Float half-plane test; boundary counts as inside within tol."""
    if n < 1:
        raise ValueError("window radius must be positive")
    verts = DecagonWindow(n).vertices_complex()
    for j in range(10):
        a = verts[j]
        b = verts[(j + 1) % 10]
        edge = b - a
        rel = p - a
        cross = edge.real * rel.imag - edge.imag * rel.real
        if cross < -tol * abs(edge):
            return False
    return True


def decagon_contains_exact(x: CycloInt, n: int) -> bool:
    """Exact membership for module points (closed decagon)."""
    if n < 1:
        raise ValueError("window radius must be positive")
    return all(w.sign() >= 0 for w in _edge_forms(x, n))


def line_contains(x: GoldenInt, n: int) -> bool:
    """O(1) membership test for the closed form L(n)."""
    return bool(_level(x.a, x.b) <= n)


def omega_from_cyclo(x: CycloInt) -> OmegaVector:
    """Inverse of cyclo_from_omega: with xi = tau*xi^0 + xi^4 the alpha
    coordinates of p + q*xi are (p + tau*q, q)."""
    return omega_from_alpha(AlphaVector(GroupId.H2, (x.p + TAU * x.q, x.q)))


def values(rows) -> tuple[GoldenInt, ...]:
    """(N, 2) rows (a, b) as the values a + b*tau, in row order."""
    return tuple(GoldenInt(a, b) for a, b in rows.tolist())


def norms(num, den) -> list[GoldenRational]:
    """The (a, b) numerator rows over the denominators as scalars, each
    checked to be already in the form ``GoldenRational`` reduces it to."""
    out = []
    for (a, b), d in zip(num.tolist(), den.tolist()):
        out.append(GoldenRational(GoldenInt(a, b), d))
        assert (out[-1].num, out[-1].den) == (GoldenInt(a, b), d)
    return out


def cyclo_set(keys) -> set[CycloInt]:
    """Packed (p.a, p.b, q.a, q.b) keys, as ``sigma_2d`` returns, as a set."""
    rows = unpack_keys(keys, 4).tolist()
    return {CycloInt(GoldenInt(a, b), GoldenInt(c, d)) for a, b, c, d in rows}


def points(fragment) -> tuple[OmegaVector, ...]:
    """The points of a fragment as omega vectors, in key order."""
    return tuple(OmegaVector.from_flat(fragment.group, r) for r in fragment.rows().tolist())


def cyclo_points(fragment) -> tuple[CycloInt, ...]:
    """The points of an H2 fragment as cyclotomic integers, in row order."""
    return tuple(cyclo_from_omega(v) for v in points(fragment))


def closure(seeds, gens, cols: int):
    """Sorted keys of the closure of sorted unique ``seeds`` under ``gens``,
    grown one frontier at a time from slabs of ``kernel._SLAB`` rows, each
    image kept only if it is not in ``seen``."""
    seen = frontier = seeds
    while frontier.size:
        fresh = []
        for lo in range(0, len(frontier), kernel._SLAB):
            rows = unpack_keys(frontier[lo:lo + kernel._SLAB], cols)
            images = unique_keys(np.concatenate([pack_rows(apply(g, rows)) for g in gens]))
            fresh.append(images[~isin_sorted(images, seen)])
        frontier = unique_keys(np.concatenate(fresh))
        # two sorted disjoint runs: the stable sort merges them in linear time
        seen = np.concatenate([seen, frontier])
        seen.sort(kind="stable")
    return seen


def word_levels(group, n: int, cap: int):
    """The sorted keys of the word levels S_0, ..., S_n, one at a time: S_0
    holds the origin, and S_{m+1} is the reflection closure of T(S_m).  A
    level of more than ``cap`` points raises, as ``generate`` does."""
    ops = operators(group)
    refl = [r.compiled() for r in ops.reflections]
    cols = 2 * group.rank
    level = pack_rows(np.zeros((1, cols), dtype=np.int64))
    yield level
    for _ in range(n):
        # a translation keeps rows distinct and in lexicographic order
        level = closure(pack_rows(apply(ops.translation.compiled(), unpack_keys(level, cols))), refl, cols)
        if level.size > cap:
            raise ResourceLimitError(f"reflection closure exceeded cap {cap}")
        yield level


def word_fragment(group, n: int, cap: int):
    """The sorted keys of S_{n-1} u S_n from ``word_levels``; the cap bounds
    every union S_{m-1} u S_m too, tested after level m, and counts the
    origin."""
    if cap < 1:
        raise ResourceLimitError(f"fragment exceeded cap {cap}")
    prev = None
    for level in word_levels(group, n, cap):
        total = level if prev is None else np.union1d(prev, level)
        if total.size > cap:
            raise ResourceLimitError(f"fragment exceeded cap {cap}")
        prev = level
    return total


def mat_mul(a, b):
    n, k, m = len(a), len(b), len(b[0])
    return tuple(
        tuple(sum((a[i][l] * b[l][j] for l in range(k)), ZERO) for j in range(m))
        for i in range(n)
    )


def compose(first: AffineOperator, then: AffineOperator) -> AffineOperator:
    """``first`` after ``then``: (M1, t1) . (M2, t2) = (M1 M2, M1 t2 + t1)."""
    m = mat_mul(first.matrix, then.matrix)
    t = mat_vec(first.matrix, then.offset)
    return AffineOperator(first.group, m, tuple(a + b for a, b in zip(t, first.offset)))


def identity_operator(group: GroupId) -> AffineOperator:
    k = group.rank
    return AffineOperator(group, golden_identity(k), (ZERO,) * k)


def scalar_identities(group: GroupId, extended: bool = False) -> tuple[PairIdentity, ...]:
    """``affine.verify_identities`` by GoldenInt composition of operators."""
    ops = operators(group)
    gens = ((ops.root_reflection,) if extended else ()) + ops.reflections
    matrix = extended_cartan(group) if extended else cartan(group)
    identity = identity_operator(group)
    results = []
    for i in range(len(gens)):
        for j in range(i, len(gens)):
            order = coxeter_order(matrix[i][j])
            prod = compose(gens[i], gens[j])
            power = identity
            minimal = True
            for _ in range(order - 1):
                power = compose(power, prod)
                if power == identity:
                    minimal = False
            results.append(PairIdentity(i, j, order, compose(power, prod) == identity, minimal))
    return tuple(results)


class DecompositionError(ValueError):
    """No witness satisfied the level bound (impossible for valid input)."""


@dataclass(frozen=True)
class Decomposition:
    y: GoldenInt
    z: GoldenInt
    sector: int
    cost_y: int
    cost_z: int


def decompose(x: CycloInt, n: int, witness: tuple[int, int, int, int, int]) -> Decomposition:
    """Split a fragment point into two adjacent-line components,
    x = (y + z*xi) * xi^sector with y and the z coefficient both on level n.

    ``witness`` is a root-sum certificate (beta_0..beta_4) over the basis
    xi^0..xi^4 with sum |beta_j| <= n.  Writing xi^2, xi^3, xi^4 in terms
    of xi^0, xi^1 gives y = (b0 - b2) - (b3 + b4)*tau and
    z = (b1 + b4) + (b2 + b3)*tau, whose levels ``_level`` computes.
    Points in the cone between xi^0 and xi^1 split in sector 0; the
    remaining sectors are reached by ten-fold rotation, which permutes
    certificates without changing their root count: multiplying the point
    by xi^-1 = -xi^4 shifts root indices down.
    """
    total = sum(xi_pow(j) * w for j, w in enumerate(witness))
    if total != x:
        raise ValueError("witness does not sum to the given point")
    if sum(abs(b) for b in witness) > n:
        raise ValueError("witness uses more than n roots")

    b0, b1, b2, b3, b4 = witness
    for sector in range(10):
        y = GoldenInt(b0 - b2, -(b3 + b4))
        z = GoldenInt(b1 + b4, b2 + b3)
        cost_y, cost_z = int(_level(y.a, y.b)), int(_level(z.a, z.b))
        if cost_y <= n and cost_z <= n:
            return Decomposition(y, z, sector, cost_y, cost_z)
        b0, b1, b2, b3, b4 = b1, b2, b3, b4, -b0
    raise DecompositionError(f"no sector splits {x} on level {n}")


def rootsum_witnesses(n: int) -> dict[CycloInt, tuple[int, int, int, int, int]]:
    """Every fragment point with one root-sum certificate (beta_0..beta_4).

    ``kernel.root_sums`` over the roots xi^0..xi^9 as (p.a, p.b, q.a, q.b)
    rows; a point's certificate is its parent's plus e_j for xi^j and minus
    e_j for xi^(j+5) = -xi^j, so sum|beta| is its level, at most n.
    """
    levels = root_sums(_XI_ROWS, n, lineanalysis.DEFAULT_CAP)
    step = np.concatenate([np.eye(5, dtype=np.int64), -np.eye(5, dtype=np.int64)])
    betas = [np.zeros((1, 5), dtype=np.int64)]
    for _, parent, root in levels[1:]:
        betas.append(betas[-1][parent] + step[root])
    rows = unpack_keys(np.concatenate([k for k, _, _ in levels]), 4).tolist()
    return {
        CycloInt(GoldenInt(a, b), GoldenInt(c, d)): tuple(beta)
        for (a, b, c, d), beta in zip(rows, np.concatenate(betas).tolist())
    }
