import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from quasih import kernel
from quasih.affine import operators

from quasih.golden import GoldenInt, GoldenRational, ONE, TAU, TAU_CONJ, ZERO
from quasih.rootsystem import (
    AlphaVector,
    GroupId,
    H_GROUPS,
    OmegaVector,
    alpha_from_omega,
    alpha_vector_from_omega,
    cartan,
    cartan_inverse,
    cartesian,
    cyclo_from_omega,
    golden_det,
    highest_root,
    norm_sq,
    omega_from_alpha,
    roots_omega,
    simple_reflection_matrix,
    mat_vec,
)
from oracles import closure, omega_from_cyclo

ALL_GROUPS = (GroupId.A2,) + H_GROUPS


def gi(a, b=0):
    return GoldenInt(a, b)


class TestCartan:
    def test_h2_matrix(self):
        assert cartan(GroupId.H2) == (
            (gi(2), -TAU),
            (-TAU, gi(2)),
        )

    def test_a2_matrix(self):
        assert cartan(GroupId.A2) == (
            (gi(2), gi(-1)),
            (gi(-1), gi(2)),
        )

    def test_h3_matrix(self):
        assert cartan(GroupId.H3) == (
            (gi(2), gi(-1), gi(0)),
            (gi(-1), gi(2), -TAU),
            (gi(0), -TAU, gi(2)),
        )

    def test_h4_chain(self):
        m = cartan(GroupId.H4)
        assert [m[i][i + 1] for i in range(3)] == [gi(-1), gi(-1), -TAU]
        assert all(m[i][i] == gi(2) for i in range(4))

    @pytest.mark.parametrize("group", ALL_GROUPS)
    def test_inverse_is_exact(self, group):
        a = cartan(group)
        inv = cartan_inverse(group)
        k = group.rank
        for i in range(k):
            for j in range(k):
                total = GoldenRational(0)
                for l in range(k):
                    total = total + inv[i][l] * a[l][j]
                assert total == GoldenRational(1 if i == j else 0)

    def test_h2_inverse_reference_value(self):
        # (1/(3-tau)) [[2, tau], [tau, 2]] rationalized via (3-tau)(2+tau) = 5
        inv = cartan_inverse(GroupId.H2)
        assert inv[0][0] == GoldenRational(gi(2) * gi(2, 1), 5)
        assert inv[0][1] == GoldenRational(TAU * gi(2, 1), 5)

    def test_h3_inverse_reference_entries(self):
        inv = cartan_inverse(GroupId.H3)
        assert inv[1][1] == GoldenRational(gi(4, 4), 2)
        assert inv[0][0] == GoldenRational(gi(2, 1), 2)
        assert inv[0][2] == GoldenRational(gi(1, 2), 2)

    def test_h4_inverse_reference_entries(self):
        inv = cartan_inverse(GroupId.H4)
        assert inv[0][0] == GoldenRational(gi(2, 2), 1)
        assert inv[2][2] == GoldenRational(gi(12, 18), 1)
        assert inv[0][3] == GoldenRational(gi(3, 5), 1)


class TestRoots:
    @pytest.mark.parametrize(
        "group,count",
        [(GroupId.H2, 10), (GroupId.H3, 30), (GroupId.H4, 120), (GroupId.A2, 6)],
    )
    def test_counts(self, group, count):
        assert len(roots_omega(group)) == count

    @pytest.mark.parametrize("group", ALL_GROUPS)
    def test_orbit_of_alpha_1_is_the_closure_of_every_simple_root(self, group):
        # an independent path: every simple-root row as a seed, closed under
        # the compiled reflections on packed int64 keys
        refl = [r.compiled() for r in operators(group).reflections]
        seeds = np.array([OmegaVector(group, row).flat() for row in cartan(group)], dtype=np.int64)
        cols = 2 * group.rank
        keys = closure(kernel.unique_keys(kernel.pack_rows(seeds)), refl, cols)
        assert [v.flat() for v in roots_omega(group)] == [tuple(r) for r in kernel.unpack_keys(keys, cols).tolist()]

    def test_h2_roots_match_reference_list(self):
        expected = set()
        for c1, c2 in [(1, 0), (0, 1)]:
            expected.add(AlphaVector.make(GroupId.H2, (gi(c1), gi(c2))))
        for pair in [(ONE, TAU), (TAU, ONE), (TAU, TAU)]:
            expected.add(AlphaVector.make(GroupId.H2, pair))
        expected |= {-v for v in expected}
        assert {alpha_vector_from_omega(v) for v in roots_omega(GroupId.H2)} == expected

    @pytest.mark.parametrize("group", ALL_GROUPS)
    def test_closed_under_negation_and_reflection(self, group):
        rs = set(roots_omega(group))
        assert {-v for v in rs} == rs
        for j in range(group.rank):
            m = simple_reflection_matrix(group, j)
            assert {OmegaVector(group, mat_vec(m, v.coords)) for v in rs} == rs

    @pytest.mark.parametrize("group", H_GROUPS)
    def test_unit_norm(self, group):
        for v in roots_omega(group):
            assert norm_sq(v) == GoldenRational(1)

    def test_a2_norm_two(self):
        for v in roots_omega(GroupId.A2):
            assert norm_sq(v) == GoldenRational(2)


class TestHighestRoot:
    def test_h2(self):
        ah = highest_root(GroupId.H2)
        assert ah.coords == (-TAU_CONJ, -TAU_CONJ)
        assert alpha_vector_from_omega(ah).coords == (TAU, TAU)

    def test_h3(self):
        ah = highest_root(GroupId.H3)
        assert ah.coords == (ZERO, -TAU_CONJ, ZERO)
        assert alpha_vector_from_omega(ah).coords == (TAU, TAU * 2, TAU * TAU)

    def test_h4(self):
        ah = highest_root(GroupId.H4)
        assert ah.coords == (-TAU_CONJ, ZERO, ZERO, ZERO)
        # alpha coords 2tau, sqrt5*tau^2, 2tau^3, tau^4 with sqrt5 = 2tau - 1
        sqrt5 = gi(-1, 2)
        tau2 = TAU * TAU
        expected = (TAU * 2, sqrt5 * tau2, tau2 * TAU * 2, tau2 * tau2)
        assert alpha_vector_from_omega(ah).coords == expected

    def test_a2(self):
        assert highest_root(GroupId.A2).coords == (ONE, ONE)

    @pytest.mark.parametrize("group", ALL_GROUPS)
    def test_dominant(self, group):
        assert highest_root(group).is_dominant()

    @pytest.mark.parametrize("group", ALL_GROUPS)
    def test_walk_ends_at_the_one_dominant_root_of_the_closure(self, group):
        # the chamber walk against the full reflection closure
        dominant = [v for v in roots_omega(group) if v.is_dominant()]
        assert dominant == [highest_root(group)]


class TestBasisChange:
    def test_h2_alpha1(self):
        v = omega_from_alpha(AlphaVector.make(GroupId.H2, (1, 0)))
        assert v.coords == (gi(2), -TAU)

    def test_h2_highest(self):
        v = omega_from_alpha(AlphaVector.make(GroupId.H2, (TAU, TAU)))
        assert v.coords == (-TAU_CONJ, -TAU_CONJ)

    def test_zero(self):
        z = omega_from_alpha(AlphaVector.make(GroupId.H4, (0, 0, 0, 0)))
        assert z.is_zero()

    @settings(max_examples=60)
    @given(
        st.sampled_from(ALL_GROUPS),
        st.lists(st.integers(-100, 100), min_size=8, max_size=8),
    )
    def test_round_trip(self, group, raw):
        k = group.rank
        coords = [GoldenInt(raw[2 * i], raw[2 * i + 1]) for i in range(k)]
        v = OmegaVector.make(group, coords)
        back = alpha_from_omega(v)
        again = [
            sum(
                (GoldenRational(cartan(group)[j][i]) * back[j] for j in range(k)),
                GoldenRational(0),
            )
            for i in range(k)
        ]
        assert all(a == GoldenRational(c) for a, c in zip(again, coords))


class TestNormSq:
    def test_alpha1_h2(self):
        assert norm_sq(OmegaVector.make(GroupId.H2, (gi(2), -TAU))) == GoldenRational(1)

    def test_zero(self):
        assert norm_sq(OmegaVector.zero(GroupId.H2)) == GoldenRational(0)

    def test_positive_unless_zero(self):
        v = OmegaVector.make(GroupId.H3, (gi(1), gi(0, -1), gi(2)))
        assert norm_sq(v).sign() > 0

    def test_quadratic_form_matches_cartesian_h2(self):
        v = omega_from_alpha(AlphaVector.make(GroupId.H2, (3, TAU)))
        x, y = cartesian(v, normalize=True)
        assert x * x + y * y == pytest.approx(norm_sq(v).embed(), abs=1e-9)


class TestCartesian:
    def test_h2_unnormalized_scale(self):
        # the raw planar matrix stretches unit roots to length sqrt(3 - tau)
        x, y = cartesian(omega_from_alpha(AlphaVector.make(GroupId.H2, (1, 0))), False)
        assert math.hypot(x, y) == pytest.approx(math.sqrt(3 - TAU.embed()), abs=1e-12)

    def test_h2_roots_are_tenth_roots_of_unity(self):
        expected = sorted(
            (
                round(math.cos(j * math.pi / 5), 9),
                round(math.sin(j * math.pi / 5), 9),
            )
            for j in range(10)
        )
        got = sorted(
            (round(x, 9), round(y, 9))
            for x, y in (cartesian(v, True) for v in roots_omega(GroupId.H2))
        )
        for (gx, gy), (ex, ey) in zip(got, expected):
            assert gx == pytest.approx(ex, abs=1e-12)
            assert gy == pytest.approx(ey, abs=1e-12)

    def test_h2_zero(self):
        assert cartesian(OmegaVector.zero(GroupId.H2)) == (0.0, 0.0)

    def test_h3_alpha2_model(self):
        v = omega_from_alpha(AlphaVector.make(GroupId.H3, (0, 1, 0)))
        x = cartesian(v)
        expect = (-TAU_CONJ.embed() / 2, -TAU.embed() / 2, -0.5)
        assert x == pytest.approx(expect, abs=1e-12)

    @pytest.mark.parametrize("group", H_GROUPS)
    def test_roots_have_unit_length(self, group):
        for v in roots_omega(group):
            assert math.sqrt(sum(c * c for c in cartesian(v, True))) == pytest.approx(
                1.0, abs=1e-9
            )

    @pytest.mark.parametrize("group", H_GROUPS)
    def test_model_gram_matrix_reproduces_cartan(self, group):
        # the orthonormal models must satisfy 2(alpha_i|alpha_j) = a_ij;
        # this is the oracle that pins the alpha4 sign choice
        k = group.rank
        basis = [
            cartesian(omega_from_alpha(AlphaVector.make(group, tuple(
                1 if t == j else 0 for t in range(k)
            ))), True)
            for j in range(k)
        ]
        a = cartan(group)
        for i in range(k):
            for j in range(k):
                dot = sum(x * y for x, y in zip(basis[i], basis[j]))
                assert 2 * dot == pytest.approx(a[i][j].embed(), abs=1e-12)


def _even_permutations(n):
    for perm in itertools.permutations(range(n)):
        inversions = sum(
            1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j]
        )
        if inversions % 2 == 0:
            yield perm


def _delta3_model():
    """Transcribed Cartesian root coordinates: (+-1, 0, 0) with all
    permutations and (1/2)(+-1, +-tau', +-tau) with even permutations."""
    pts = set()
    for i in range(3):
        for s in (1.0, -1.0):
            v = [0.0, 0.0, 0.0]
            v[i] = s
            pts.add(tuple(v))
    base = (1.0, TAU_CONJ.embed(), TAU.embed())
    for signs in itertools.product((1, -1), repeat=3):
        vals = [s * b / 2 for s, b in zip(signs, base)]
        for perm in _even_permutations(3):
            pts.add(tuple(vals[p] for p in perm))
    return pts


def _delta4_model():
    pts = set()
    for signs in itertools.product((1, -1), repeat=4):
        pts.add(tuple(s / 2 for s in signs))
    for i in range(4):
        for s in (1.0, -1.0):
            v = [0.0] * 4
            v[i] = s
            pts.add(tuple(v))
    base = (0.0, 1.0, TAU_CONJ.embed(), TAU.embed())
    for signs in itertools.product((1, -1), repeat=4):
        vals = [s * b / 2 for s, b in zip(signs, base)]
        for perm in _even_permutations(4):
            pts.add(tuple(vals[p] for p in perm))
    return pts


def _round_set(points, digits=9):
    return {tuple(round(c, digits) for c in p) for p in points}


def test_delta3_matches_transcribed_model():
    generated = _round_set(cartesian(v, True) for v in roots_omega(GroupId.H3))
    assert generated == _round_set(_delta3_model())


def test_delta4_matches_transcribed_model():
    generated = _round_set(cartesian(v, True) for v in roots_omega(GroupId.H4))
    assert generated == _round_set(_delta4_model())


class TestCycloBridge:
    def test_alpha1_is_one(self):
        from quasih.golden import xi_pow

        v = omega_from_alpha(AlphaVector.make(GroupId.H2, (1, 0)))
        assert cyclo_from_omega(v) == xi_pow(0)

    def test_alpha2_is_xi4(self):
        from quasih.golden import xi_pow

        v = omega_from_alpha(AlphaVector.make(GroupId.H2, (0, 1)))
        assert cyclo_from_omega(v) == xi_pow(4)

    def test_highest_root_is_xi2(self):
        from quasih.golden import xi_pow

        assert cyclo_from_omega(highest_root(GroupId.H2)) == xi_pow(2)

    @given(st.lists(st.integers(-30, 30), min_size=4, max_size=4))
    def test_round_trip(self, raw):
        v = OmegaVector.make(
            GroupId.H2, (GoldenInt(raw[0], raw[1]), GoldenInt(raw[2], raw[3]))
        )
        # only root-lattice points have a cyclotomic form; these all do
        try:
            x = cyclo_from_omega(v)
        except ValueError:
            return
        assert omega_from_cyclo(x) == v

    def test_embedding_agrees_with_cartesian(self):
        for v in roots_omega(GroupId.H2):
            z = cyclo_from_omega(v).embed()
            x, y = cartesian(v, True)
            # same root circle; the two planar charts differ by a rotation
            assert abs(z) == pytest.approx(math.hypot(x, y), abs=1e-9)

    def test_rejects_other_groups(self):
        with pytest.raises(ValueError):
            cyclo_from_omega(OmegaVector.zero(GroupId.H3))


def test_extended_det_zero_all_groups():
    from quasih.affine import extended_cartan

    for group in ALL_GROUPS:
        assert golden_det(extended_cartan(group)).is_zero()
