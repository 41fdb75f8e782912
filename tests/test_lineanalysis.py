import math
from functools import cmp_to_key

import pytest
from hypothesis import given, settings, strategies as st

from quasih.golden import CycloInt, GoldenInt, TAU, TAU_CONJ, xi_pow
from quasih.rootsystem import GroupId
from quasih.fragment import generate
from quasih.lineanalysis import (
    DecompositionError,
    Window1D,
    decompose,
    deficiencies_1d,
    levels,
    line_bruteforce,
    line_closed_form,
    line_contains,
    min_distance_compare,
    mn_nn,
    rootsum_witnesses,
    scaling_check,
    sigma_1d,
)


def gset(values):
    return {GoldenInt(a, b) for a, b in values}


class TestClosedForm:
    def test_n1(self):
        assert line_closed_form(1).value_set() == gset({(-1, 0), (0, 0), (1, 0)})

    def test_new_points_at_n2(self):
        new = line_closed_form(2).value_set() - line_closed_form(1).value_set()
        assert new == gset({(2, 0), (-2, 0), (0, 1), (0, -1), (1, -1), (-1, 1)})

    def test_example_not_in_n3(self):
        assert GoldenInt(-1, 2) not in line_closed_form(3).value_set()

    def test_negation_symmetric_and_nested(self):
        for n in range(7):
            values = line_closed_form(n).value_set()
            assert {-v for v in values} == values
            if n:
                assert line_closed_form(n - 1).value_set() <= values

    def test_values_sorted(self):
        values = line_closed_form(5).values
        embedded = [v.embed() for v in values]
        assert embedded == sorted(embedded)

    @given(st.integers(-60, 60), st.integers(-60, 60), st.integers(0, 8))
    def test_membership_predicate_matches_enumeration(self, a, b, n):
        x = GoldenInt(a, b)
        assert line_contains(x, n) == (x in line_closed_form(n).value_set())


class TestBruteforce:
    def test_n0(self):
        assert line_bruteforce(0).value_set() == {GoldenInt(0)}

    def test_n2_reference_values(self):
        assert line_bruteforce(2).value_set() == gset(
            {(0, 0), (1, 0), (-1, 0), (2, 0), (-2, 0), (0, 1), (0, -1), (1, -1), (-1, 1)}
        )

    def test_equals_closed_form_up_to_8(self):
        for n in range(9):
            assert line_bruteforce(n).values == line_closed_form(n).values

    def test_tau_from_root_pair(self):
        # tau is the real part of xi + xi^9
        s = xi_pow(1) + xi_pow(9)
        assert s.is_real() and s.p == TAU


class TestLevels:
    def test_level0(self):
        assert levels(0)[0] == (0, (GoldenInt(0),))

    def test_level1(self):
        assert set(levels(1)[1][1]) == gset({(1, 0), (-1, 0)})

    def test_level2(self):
        assert set(levels(2)[2][1]) == gset(
            {(2, 0), (-2, 0), (0, 1), (0, -1), (1, -1), (-1, 1)}
        )

    def test_levels_partition(self):
        parts = levels(5)
        union = set()
        for _, members in parts:
            assert not (union & set(members))
            union |= set(members)
        assert union == line_closed_form(5).value_set()

    def test_equals_difference_of_closed_forms(self):
        # the definition: level m is L(m) minus L(m-1), sorted exactly
        def exact_sorted(values):
            return tuple(sorted(values, key=cmp_to_key(lambda x, y: (x - y).sign())))

        expect, previous = [], frozenset()
        for m in range(21):
            current = line_closed_form(m).value_set()
            expect.append((m, exact_sorted(current - previous)))
            previous = current
        for n in range(21):
            assert levels(n) == tuple(expect[: n + 1])


class TestSigma1D:
    def test_unit_window(self):
        w = Window1D.symmetric(1)
        assert set(sigma_1d(w, w)) == gset({(-1, 0), (0, 0), (1, 0)})

    def test_example_point_inside(self):
        w = Window1D.symmetric(3)
        assert GoldenInt(-1, 2) in set(sigma_1d(w, w))

    def test_degenerate_window(self):
        w = Window1D.symmetric(0)
        assert set(sigma_1d(w, w)) == {GoldenInt(0)}

    def test_independent_bruteforce_oracle(self):
        # rectangle scan over raw integer pairs with float interval tests
        w = Window1D.symmetric(2)
        phi = (1 + math.sqrt(5)) / 2
        expected = set()
        for a in range(-20, 21):
            for b in range(-20, 21):
                value = a + b * phi
                conj = a + b * (1 - phi)
                if -2 - 1e-9 <= value <= 2 + 1e-9 and -2 - 1e-9 <= conj <= 2 + 1e-9:
                    expected.add(GoldenInt(a, b))
        assert set(sigma_1d(w, w)) == expected

    def test_asymmetric_windows(self):
        region = Window1D.make(0, 3)
        window = Window1D.make(-1, 1)
        out = sigma_1d(window, region)
        for x in out:
            assert 0 - 1e-12 <= x.embed() <= 3 + 1e-12
            assert -1 - 1e-12 <= x.conj().embed() <= 1 + 1e-12
        # 1 + tau: value 2.618 in [0, 3], conjugate 2 - tau = 0.382 in [-1, 1]
        assert GoldenInt(1, 1) in set(out)


@st.composite
def _windows(draw):
    """A closed Z[tau] window with endpoint coefficients in [-4, 4]."""
    ends = sorted(
        (GoldenInt(draw(st.integers(-4, 4)), draw(st.integers(-4, 4))) for _ in range(2)),
        key=GoldenInt.embed,
    )
    return Window1D.make(*ends)


class TestSigma1DScan:
    # |endpoint| <= 4 + 4 tau < 10.5, so every member has |x1| <= 10.5 and
    # |x2| <= 21 / sqrt5 < 10: the box |x_i| <= 12 holds them all
    @given(_windows(), _windows())
    @settings(max_examples=60)
    def test_matches_scalar_box_scan(self, window, region):
        expect = [
            GoldenInt(a, b)
            for a in range(-12, 13)
            for b in range(-12, 13)
            if region.contains(GoldenInt(a, b)) and window.contains_conj(GoldenInt(a, b))
        ]
        got = sigma_1d(window, region)
        assert set(got) == set(expect) and len(got) == len(expect)
        assert all((y - x).sign() > 0 for x, y in zip(got, got[1:]))


class TestDeficiencies1D:
    def test_empty_below_three(self):
        assert deficiencies_1d(0) == ()
        assert deficiencies_1d(1) == ()
        assert deficiencies_1d(2) == ()

    def test_example_at_three(self):
        d = set(deficiencies_1d(3))
        assert GoldenInt(-1, 2) in d and GoldenInt(1, -2) in d

    def test_nonempty_for_3_to_12(self):
        for n in range(3, 13):
            assert deficiencies_1d(n)

    def test_subset_relation(self):
        for n in range(0, 13):
            w = Window1D.symmetric(n)
            assert line_closed_form(n).value_set() <= set(sigma_1d(w, w))


class TestMnNn:
    def test_reference_pair(self):
        assert mn_nn(3) == (1, 2)

    def test_even_case(self):
        assert mn_nn(4)[0] == 2

    def test_n4_floor(self):
        # floor(7/sqrt5) = 3 via 45 < 49 <= 80
        assert mn_nn(4)[1] == 3

    def test_m_matches_direct_maximum(self):
        # independent oracle: maximize b - c over 2|b| + 2|c| <= n
        for n in range(1, 21):
            best = max(
                b - c
                for b in range(-n, n + 1)
                for c in range(-n, n + 1)
                if 2 * abs(b) + 2 * abs(c) <= n
            )
            assert mn_nn(n)[0] == best

    def test_m_below_n_from_three(self):
        for n in range(3, 21):
            m, nn = mn_nn(n)
            assert m < nn

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            mn_nn(0)


class TestDecompose:
    def test_trivial_split(self):
        x = xi_pow(0) + xi_pow(1)
        d = decompose(x, 2, (1, 1, 0, 0, 0))
        assert (d.y, d.z, d.sector) == (GoldenInt(1), GoldenInt(1), 0)

    def test_tau_splits_on_real_axis(self):
        x = CycloInt.from_golden(TAU)
        d = decompose(x, 2, (0, 1, 0, 0, -1))
        assert d.y == TAU and d.z == GoldenInt(0) and d.sector == 0

    @pytest.mark.parametrize("n", range(5))
    def test_exhaustive_over_fragment(self, n):
        witnesses = rootsum_witnesses(n)
        assert set(witnesses) == set(generate(GroupId.H2, n).cyclo_points())
        for point, beta in witnesses.items():
            d = decompose(point, n, beta)
            rebuilt = (CycloInt.from_golden(d.y) + xi_pow(1) * d.z) * xi_pow(d.sector)
            assert rebuilt == point
            assert d.cost_y <= n and d.cost_z <= n
            assert line_contains(d.y, n) and line_contains(d.z, n)

    def test_components_on_their_levels(self):
        witnesses = rootsum_witnesses(3)
        for point, beta in witnesses.items():
            d = decompose(point, 3, beta)
            assert line_contains(d.y, d.cost_y) and line_contains(d.z, d.cost_z)

    def test_rejects_bad_witness(self):
        with pytest.raises(ValueError):
            decompose(xi_pow(0), 3, (0, 1, 0, 0, 0))

    def test_rejects_oversized_witness(self):
        with pytest.raises(ValueError):
            decompose(CycloInt.from_golden(GoldenInt(4)), 3, (4, 0, 0, 0, 0))

    def test_unconditional_reading_fails_at_n1(self):
        # the xi-coefficient of the root xi^2 is tau, which is not on level
        # 1; only the rotated (sector) reading succeeds
        d = decompose(xi_pow(2), 1, (0, 0, 1, 0, 0))
        assert d.sector != 0
        assert not line_contains(TAU, 1)


class TestScaling:
    def test_small_cases(self):
        assert scaling_check(0)
        assert scaling_check(1)

    def test_tau_l1_in_l2(self):
        target = line_closed_form(2).value_set()
        for v in line_closed_form(1).values:
            assert TAU * v in target

    @pytest.mark.parametrize("n", range(11))
    def test_up_to_ten(self, n):
        assert scaling_check(n)

    def test_substitution_identity(self):
        # tau*(u + v*tau) with (a,b,c) |-> (b, a+b-c, -c) stays in the form
        for n in range(1, 7):
            doubled = line_closed_form(2 * n).value_set()
            for x in line_closed_form(n).values:
                assert TAU * x in doubled


class TestMinDistance:
    def test_n1_gaps(self):
        d_line, d_sigma, ok = min_distance_compare(1)
        assert d_line == pytest.approx(1.0) and d_sigma == pytest.approx(1.0) and ok

    @pytest.mark.parametrize("n", range(1, 11))
    def test_inequality(self, n):
        _, _, ok = min_distance_compare(n)
        assert ok

    def test_exact_gap_comparison(self):
        # the float report mirrors an exactly-decidable inequality
        from quasih.lineanalysis import _min_gap

        for n in range(1, 8):
            w = Window1D.symmetric(n)
            d_line = _min_gap(line_closed_form(n).values)
            d_sigma = _min_gap(sigma_1d(w, w))
            assert (d_line - d_sigma).sign() >= 0


class TestFragmentConsistency:
    @pytest.mark.parametrize("n", range(5))
    def test_real_axis_section_matches_closed_form(self, n):
        fragment = generate(GroupId.H2, n)
        section = {x.p for x in fragment.cyclo_points() if x.is_real()}
        assert section == line_closed_form(n).value_set()
