"""Acceptance gate: one test per documented claim cluster, at fixed sizes
and tolerances.  A summary line per criterion lands at session end (see
conftest).

Criterion 6 checks the exact enumeration against the bundled tables.  For
every H group the determinant-zero bordered templates at bound 3 are exactly
the omega coordinates of the roots (a Schur-complement identity, checked here
against roots_omega), and the H2 and H4 tables are covered row for row.  The
H3 table is kept verbatim and lists only 20 of the 30 templates; four of its
rows have exact determinant -8 under the very template that defines the
table.  The criterion pins those four rows and their determinant instead of
asking the source data to be consistent, so `verify --only cartan-tables`
still exits 2 by design and names them.
"""

import random
import time

import numpy as np
import pytest

from quasih.golden import CycloInt, GoldenInt, GoldenRational, TAU, TAU_CONJ, xi_pow
from quasih.rootsystem import (
    AlphaVector,
    GroupId,
    H_GROUPS,
    OmegaVector,
    cartan,
    cyclo_from_omega,
    golden_det,
    omega_from_alpha,
    roots_omega,
)
from quasih.affine import (
    _border_matrix,
    reference_diff,
    reference_table,
    enumerate_generalized,
    extended_cartan,
    verify_conditions,
    verify_identities,
)
from quasih.fragment import check_tenfold, generate, generate_rootsum, orbits
from oracles import cyclo_points, cyclo_set, points, values
from quasih.lineanalysis import (
    deficiencies_1d,
    levels,
    line_bruteforce,
    line_closed_form,
    min_distance_compare,
    mn_nn,
    scaling_check,
    sigma_1d,
    two_line_split,
)
from quasih.cutproject import deficiencies_2d, sigma_2d
from quasih.checks import WORD_TABLE, evaluate_word
from quasih.serialize import fragment_svg


@pytest.fixture(scope="module")
def q2():
    return {n: generate(GroupId.H2, n) for n in range(7)}


@pytest.fixture(scope="module")
def sigma():
    return {n: sigma_2d(n) for n in range(1, 6)}


def test_criterion_01_fragment_counts():
    start = time.perf_counter()
    sizes = {n: generate(GroupId.H2, n).size for n in (0, 1, 2)}
    elapsed = time.perf_counter() - start
    assert sizes == {0: 1, 1: 11, 2: 61}
    assert elapsed < 1.0


def test_criterion_02_word_table(q2):
    produced = {OmegaVector.zero(GroupId.H2)}
    for word, alpha in WORD_TABLE:
        tabulated = omega_from_alpha(AlphaVector.make(GroupId.H2, alpha))
        swapped = omega_from_alpha(AlphaVector.make(GroupId.H2, alpha[::-1]))
        # the reference list labels the reflections with the H2 diagram
        # flip of the operator convention; both readings are pinned
        assert evaluate_word(word, flip=True) == tabulated
        raw = evaluate_word(word)
        assert raw == swapped
        produced.add(raw)
    assert produced == set(points(q2[1]))
    assert set(points(q2[1])) == set(roots_omega(GroupId.H2)) | {
        OmegaVector.zero(GroupId.H2)
    }
    last, second_last = WORD_TABLE[-1][0], WORD_TABLE[-2][0]
    assert evaluate_word(last) == evaluate_word(second_last)


def test_criterion_03_orbit_decomposition(q2):
    dominant, sizes = orbits(q2[2])

    def dom(c1, c2):
        return omega_from_alpha(AlphaVector.make(GroupId.H2, (c1, c2)))

    def of_size(size):
        return {OmegaVector.from_flat(GroupId.H2, d) for d in dominant[sizes == size].tolist()}

    tau2 = TAU * TAU
    ten = of_size(10)
    five = of_size(5)
    assert ten == {
        dom(2 * TAU, 2 * TAU),   # 2 alpha_H
        dom(tau2, tau2),         # tau alpha_H
        dom(TAU, TAU),           # alpha_H
        dom(GoldenInt(1), GoldenInt(1)),  # (-tau') alpha_H
    }
    assert five == {
        dom(GoldenInt(2), TAU),
        dom(TAU, GoldenInt(2)),
        dom(tau2, 2 * TAU),
        dom(2 * TAU, tau2),
    }
    assert of_size(1) == {OmegaVector.zero(GroupId.H2)}
    assert sizes.sum() == 61


def test_criterion_04_group_identities():
    start = time.perf_counter()
    for group in H_GROUPS:
        for extended in (False, True):
            pairs = verify_identities(group, extended)
            assert all(p.holds and p.minimal for p in pairs), pairs
    orders = {(p.i, p.j): p.order for p in verify_identities(GroupId.H2, extended=True)}
    assert orders[(0, 1)] == 5  # a_01 = tau' forces (r0 r1)^5 = 1
    assert time.perf_counter() - start < 1.0


def test_criterion_05_extended_cartan_uniqueness():
    for group in (GroupId.A2,) + H_GROUPS:
        report = verify_conditions(extended_cartan(group))
        assert report.all_ok and report.det == GoldenInt(0)
    for group in H_GROUPS:
        borders = [OmegaVector.from_flat(group, c).coords for c in enumerate_generalized(group, 3).tolist()]
        nonpositive = [b for b in borders if all(e.sign() <= 0 for e in b)]
        assert len(nonpositive) == 1
        assert nonpositive[0] == tuple(extended_cartan(group)[0][1:])


def test_criterion_06_cartan_tables():
    missing_h2, _ = reference_diff(GroupId.H2, 3)
    missing_h3, extras_h3 = reference_diff(GroupId.H3, 3)
    h4_start = time.perf_counter()
    missing_h4, _ = reference_diff(GroupId.H4, 3)
    h4_elapsed = time.perf_counter() - h4_start
    assert len(reference_table(GroupId.H2)) == 10
    assert len(reference_table(GroupId.H3)) == 20
    assert len(reference_table(GroupId.H4)) == 120
    assert h4_elapsed < 60.0
    for group in H_GROUPS:
        templates = set(map(tuple, enumerate_generalized(group, 3).tolist()))
        assert templates == {r.flat() for r in roots_omega(group)}, group
    assert not missing_h2, missing_h2
    assert not missing_h4, missing_h4
    # extras are reported, not asserted away
    assert isinstance(extras_h3, tuple)
    # the H3 table is kept verbatim; these four rows are not templates
    bad_h3 = {
        (-1, -2, 0, 2, -2, 1),
        (0, -3, -1, 2, -1, 1),
        (0, 3, 1, -2, 1, -1),
        (1, 2, 0, -2, 2, -1),
    }
    assert set(missing_h3) == bad_h3
    for row in bad_h3:
        border = OmegaVector.from_flat(GroupId.H3, row).coords
        assert golden_det(_border_matrix(GroupId.H3, border)) == GoldenInt(-8)


def test_criterion_07_line_analysis():
    start = time.perf_counter()
    level2 = set(levels(2)[2][1])
    assert level2 == {
        GoldenInt(2), GoldenInt(-2), TAU, -TAU, TAU_CONJ, -TAU_CONJ,
    }
    for n in range(9):
        assert np.array_equal(line_closed_form(n), line_bruteforce(n))
    assert time.perf_counter() - start < 10.0


def test_criterion_08_cutproject_1d():
    for n in (1, 2):
        assert np.array_equal(sigma_1d(n), line_closed_form(n))
        assert values(deficiencies_1d(n)) == ()
    d3 = set(values(deficiencies_1d(3)))
    assert GoldenInt(-1, 2) in d3 and GoldenInt(1, -2) in d3
    for n in range(3, 13):
        assert len(deficiencies_1d(n))


def test_criterion_09_mn_nn_bounds():
    assert mn_nn(3) == (1, 2)
    for n in range(3, 21):
        m, upper = mn_nn(n)
        assert m == (n // 2 if n % 2 == 0 else (n - 1) // 2)
        assert m < upper


def test_criterion_10_rootsum_oracle():
    start = time.perf_counter()
    for group, nmax in ((GroupId.H2, 4), (GroupId.H3, 3), (GroupId.H4, 2)):
        for n in range(nmax + 1):
            assert points(generate(group, n)) == points(generate_rootsum(group, n))
    assert time.perf_counter() - start < 120.0


def test_criterion_11_window_containment(q2, sigma):
    for n in range(1, 6):
        fragment_points = set(cyclo_points(q2[n]))
        assert fragment_points <= cyclo_set(sigma[n])
    assert deficiencies_2d(1) == () and deficiencies_2d(2) == ()
    for n in (3, 4, 5):
        assert deficiencies_2d(n)


def test_criterion_12_decomposition(q2):
    for n in range(5):
        points, sector, y, z, level_y, level_z = two_line_split(n)
        split = {
            CycloInt(GoldenInt(a, b), GoldenInt(c, d)): (CycloInt(GoldenInt(*yy), GoldenInt(*zz)), s)
            for (a, b, c, d), yy, zz, s in zip(points.tolist(), y.tolist(), z.tolist(), sector.tolist())
        }
        assert set(split) == set(cyclo_points(q2[n])) and len(split) == len(points)
        assert (level_y <= n).all() and (level_z <= n).all()
        for point, (yz, s) in split.items():
            assert yz * xi_pow(s) == point


def test_criterion_13_scaling_and_repetitivity():
    for n in range(11):
        assert scaling_check(n)


def test_criterion_14_star_map():
    roots = {cyclo_from_omega(v) for v in roots_omega(GroupId.H2)}
    assert {x.star() for x in roots} == roots
    assert xi_pow(0).star() == xi_pow(0)
    assert xi_pow(4).star() == xi_pow(8)
    rng = random.Random(20240901)
    for _ in range(1000):
        a = GoldenInt(rng.randint(-40, 40), rng.randint(-40, 40))
        x = CycloInt(
            GoldenInt(rng.randint(-40, 40), rng.randint(-40, 40)),
            GoldenInt(rng.randint(-40, 40), rng.randint(-40, 40)),
        )
        y = CycloInt(
            GoldenInt(rng.randint(-40, 40), rng.randint(-40, 40)),
            GoldenInt(rng.randint(-40, 40), rng.randint(-40, 40)),
        )
        assert (x * a + y).star() == x.star() * a.conj() + y.star()


def test_criterion_15_minimal_distances(q2, sigma):
    for n in range(1, 11):
        _, _, ok = min_distance_compare(n)
        assert ok
    for n in range(1, 6):
        frag = [x.embed() for x in cyclo_points(q2[n])]
        sig = [x.embed() for x in cyclo_set(sigma[n])]
        assert _min_dist(frag) >= _min_dist(sig) - 1e-9


def _min_dist(zs):
    best = float("inf")
    for i, p in enumerate(zs):
        for q in zs[i + 1:]:
            d = abs(p - q)
            if d < best:
                best = d
    return best


def test_criterion_16_tenfold_and_svg(q2):
    for n in range(1, 7):
        assert check_tenfold(q2[n])
        assert fragment_svg(q2[n]).count("<circle") == q2[n].size


def test_criterion_17_a2_root_lattice():
    from quasih.rootsystem import alpha_from_omega

    for n in range(6):
        fragment = generate(GroupId.A2, n)
        for p in points(fragment):
            coords = alpha_from_omega(p)
            assert all(c.is_integral() and c.as_golden().b == 0 for c in coords)
