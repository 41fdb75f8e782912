import math
from functools import cmp_to_key

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from quasih.golden import CycloInt, GoldenInt, TAU, TAU_CONJ, xi_pow
from quasih.rootsystem import GroupId
from quasih import kernel, lineanalysis
from quasih.fragment import ResourceLimitError, generate
from quasih.lineanalysis import (
    DecompositionError,
    LineSet,
    Window1D,
    decompose,
    deficiencies_1d,
    levels,
    line_bruteforce,
    line_closed_form,
    min_distance_compare,
    mn_nn,
    rootsum_witnesses,
    scaling_check,
    sigma_1d,
)
from oracles import cyclo_points, line_contains, window_contains


def gset(values):
    return {GoldenInt(a, b) for a, b in values}


def exact_sorted(values):
    return tuple(sorted(values, key=cmp_to_key(lambda x, y: (x - y).sign())))


# Scalar oracles: the GoldenInt set code the row paths replaced.

def scaling_oracle(n, line):
    target = line(2 * n).value_set()
    if any(TAU * x not in target for x in line(n).values):
        return False
    pattern = line(n).values
    for x in line(n).values:
        if any(p + x not in target for p in pattern):
            return False
    return True


def deficiencies_oracle(n):
    w = Window1D.symmetric(n)
    return exact_sorted(set(sigma_1d(w, w).values) - line_closed_form(n).value_set())


def min_gap_oracle(values):
    best = None
    for prev, cur in zip(values, values[1:]):
        gap = cur - prev
        if best is None or (gap - best).sign() < 0:
            best = gap
    return best


def bruteforce_oracle(n):
    return exact_sorted(x.p for x in rootsum_witnesses(n) if x.is_real())


class TestClosedForm:
    def test_n1(self):
        assert line_closed_form(1).value_set() == gset({(-1, 0), (0, 0), (1, 0)})

    def test_new_points_at_n2(self):
        new = line_closed_form(2).value_set() - line_closed_form(1).value_set()
        assert new == gset({(2, 0), (-2, 0), (0, 1), (0, -1), (1, -1), (-1, 1)})

    def test_repeat_call_is_memoized(self):
        assert line_closed_form(7) is line_closed_form(7)

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

    def test_equals_triple_enumeration_of_the_definition(self):
        # every (a, b, c) with |a| + 2|b| + 2|c| <= n, sorted exactly
        for n in range(41):
            values = set()
            for a in range(-n, n + 1):
                for b in range(-((n - abs(a)) // 2), (n - abs(a)) // 2 + 1):
                    rest = (n - abs(a) - 2 * abs(b)) // 2
                    values.update(GoldenInt(a + c, b - c) for c in range(-rest, rest + 1))
            expect = sorted(values, key=cmp_to_key(lambda x, y: (x - y).sign()))
            assert line_closed_form(n).values == tuple(expect)

    @given(st.integers(-60, 60), st.integers(-60, 60), st.integers(0, 8))
    def test_membership_predicate_matches_enumeration(self, a, b, n):
        x = GoldenInt(a, b)
        assert line_contains(x, n) == (x in line_closed_form(n).value_set())


class TestSortedValues:
    @given(st.lists(st.tuples(st.integers(-500, 500), st.integers(-500, 500)), unique=True))
    @settings(max_examples=80)
    def test_equals_exact_comparison_sort(self, pairs):
        values = [GoldenInt(a, b) for a, b in pairs]
        expect = tuple(sorted(values, key=cmp_to_key(lambda x, y: (x - y).sign())))
        rows = lineanalysis._sorted_values([a for a, _ in pairs], [b for _, b in pairs])
        assert LineSet(rows).values == expect

    def test_fibonacci_near_ties(self):
        # F(k+1) - F(k)*tau tends to 0 with alternating sign: neighbours
        # about 1e-6 apart, with coefficients near 10^6, sort exactly
        fib = [0, 1]
        while len(fib) < 30:
            fib.append(fib[-1] + fib[-2])
        values = [GoldenInt(fib[k + 1], -fib[k]) for k in range(18, 28)] + [GoldenInt(0)]
        expect = tuple(sorted(values, key=cmp_to_key(lambda x, y: (x - y).sign())))
        a, b = zip(*[(v.a, v.b) for v in values])
        assert LineSet(lineanalysis._sorted_values(a, b)).values == expect

    def test_wrong_float_order_is_refused(self, monkeypatch):
        monkeypatch.setattr(kernel, "PHI", -kernel.PHI)
        with pytest.raises(AssertionError, match="not strictly ascending"):
            lineanalysis._sorted_values([0, 0], [1, 2])

    def test_repeated_value_is_refused(self):
        with pytest.raises(AssertionError):
            lineanalysis._sorted_values([1, 1], [2, 2])


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

    @pytest.mark.parametrize("n", range(9))
    def test_rows_match_the_witness_oracle(self, n):
        assert line_bruteforce(n).values == bruteforce_oracle(n)

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
    def test_repeat_call_is_memoized(self):
        # equal windows, not the same objects: the cache keys on value
        assert sigma_1d(Window1D.symmetric(4), Window1D.make(-4, 4)) is sigma_1d(
            Window1D.symmetric(4), Window1D.symmetric(4))

    def test_unit_window(self):
        w = Window1D.symmetric(1)
        assert sigma_1d(w, w).value_set() == gset({(-1, 0), (0, 0), (1, 0)})

    def test_example_point_inside(self):
        w = Window1D.symmetric(3)
        assert GoldenInt(-1, 2) in sigma_1d(w, w).value_set()

    def test_degenerate_window(self):
        w = Window1D.symmetric(0)
        assert sigma_1d(w, w).value_set() == {GoldenInt(0)}

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
        assert sigma_1d(w, w).value_set() == expected

    def test_asymmetric_windows(self):
        region = Window1D.make(0, 3)
        window = Window1D.make(-1, 1)
        out = sigma_1d(window, region)
        for x in out.values:
            assert 0 - 1e-12 <= x.embed() <= 3 + 1e-12
            assert -1 - 1e-12 <= x.conj().embed() <= 1 + 1e-12
        # 1 + tau: value 2.618 in [0, 3], conjugate 2 - tau = 0.382 in [-1, 1]
        assert GoldenInt(1, 1) in out.value_set()


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
            if window_contains(region, GoldenInt(a, b)) and window_contains(window, GoldenInt(a, b).conj())
        ]
        got = sigma_1d(window, region)
        assert got.value_set() == set(expect) and got.size == len(expect)
        assert all((y - x).sign() > 0 for x, y in zip(got.values, got.values[1:]))


class TestDeficiencies1D:
    def test_empty_below_three(self):
        assert deficiencies_1d(0).values == ()
        assert deficiencies_1d(1).values == ()
        assert deficiencies_1d(2).values == ()

    def test_example_at_three(self):
        d = deficiencies_1d(3).value_set()
        assert GoldenInt(-1, 2) in d and GoldenInt(1, -2) in d

    def test_nonempty_for_3_to_12(self):
        for n in range(3, 13):
            assert deficiencies_1d(n).size

    @pytest.mark.parametrize("n", range(21))
    def test_rows_match_the_set_oracle(self, n):
        assert deficiencies_1d(n).values == deficiencies_oracle(n)

    def test_subset_relation(self):
        for n in range(0, 13):
            w = Window1D.symmetric(n)
            assert line_closed_form(n).value_set() <= sigma_1d(w, w).value_set()


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
        assert set(witnesses) == set(cyclo_points(generate(GroupId.H2, n)))
        for point, beta in witnesses.items():
            d = decompose(point, n, beta)
            rebuilt = (CycloInt.from_golden(d.y) + xi_pow(1) * d.z) * xi_pow(d.sector)
            assert rebuilt == point
            assert d.cost_y <= n and d.cost_z <= n
            assert line_contains(d.y, n) and line_contains(d.z, n)

    def test_certificate_size_is_the_bfs_level(self):
        # level of a point: the least number of roots xi^0..xi^9 summing to it
        level, frontier = {CycloInt(): 0}, [CycloInt()]
        for m in range(1, 6):
            frontier = [p + xi_pow(j) for p in frontier for j in range(10)]
            frontier = [p for p in dict.fromkeys(frontier) if p not in level]
            level.update((p, m) for p in frontier)
        for n in range(6):
            witnesses = rootsum_witnesses(n)
            assert set(witnesses) == {p for p, m in level.items() if m <= n}
            for point, beta in witnesses.items():
                assert sum(abs(b) for b in beta) == level[point]
                assert sum((xi_pow(j) * b for j, b in enumerate(beta)), CycloInt()) == point

    def test_witness_cap(self, monkeypatch):
        # 1, 11 and 61 points up to levels 0, 1 and 2
        monkeypatch.setattr("quasih.lineanalysis.DEFAULT_CAP", 60)
        assert len(rootsum_witnesses(1)) == 11
        with pytest.raises(ResourceLimitError, match=r"^fragment exceeded cap 60$"):
            rootsum_witnesses(2)

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


class TestScalingRows:
    @given(st.integers(0, 6), st.integers(0, 10_000), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_matches_the_set_oracle_with_a_value_removed(self, n, index, from_double):
        # L(2n), or L(n), loses one value, so either test may fail
        line = lineanalysis.line_closed_form
        m = 2 * n if from_double else n

        def holed(k):
            rows = line(k).rows
            return LineSet(np.delete(rows, index % len(rows), axis=0)) if k == m else line(k)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(lineanalysis, "line_closed_form", holed)
            assert scaling_check(n) == scaling_oracle(n, holed)

    def test_each_failure_is_seen(self, monkeypatch):
        line = lineanalysis.line_closed_form
        two = line(2).rows

        def without(value):
            keep = ~((two[:, 0] == value.a) & (two[:, 1] == value.b))
            return lambda k: LineSet(two[keep]) if k == 2 else line(k)

        # tau = tau * 1 misses from L(2); 2 = 1 + 1 is no tau multiple of L(1)
        for value in (TAU, GoldenInt(2)):
            monkeypatch.setattr(lineanalysis, "line_closed_form", without(value))
            assert not scaling_check(1) and not scaling_oracle(1, lineanalysis.line_closed_form)

    def test_slabs_split_the_shifts(self, monkeypatch):
        monkeypatch.setattr(lineanalysis, "_SHIFT_SLAB", 7)
        assert all(scaling_check(n) for n in range(6))


class TestMinDistance:
    def test_n1_gaps(self):
        d_line, d_sigma, ok = min_distance_compare(1)
        assert d_line == pytest.approx(1.0) and d_sigma == pytest.approx(1.0) and ok

    @pytest.mark.parametrize("n", range(1, 11))
    def test_inequality(self, n):
        _, _, ok = min_distance_compare(n)
        assert ok

    @given(st.lists(st.tuples(st.integers(-200, 200), st.integers(-200, 200)),
                    min_size=2, max_size=40, unique=True))
    @settings(max_examples=80)
    def test_gap_matches_the_loop_oracle(self, pairs):
        rows = lineanalysis._sorted_values(*zip(*pairs))
        assert lineanalysis._min_gap(rows) == min_gap_oracle(LineSet(rows).values)

    def test_gap_of_fibonacci_near_ties(self):
        # neighbours about 1e-6 apart: the float argmin alone may pick wrong
        fib = [0, 1]
        while len(fib) < 30:
            fib.append(fib[-1] + fib[-2])
        values = [GoldenInt(fib[k + 1], -fib[k]) for k in range(18, 28)] + [GoldenInt(0)]
        rows = lineanalysis._sorted_values([v.a for v in values], [v.b for v in values])
        assert lineanalysis._min_gap(rows) == min_gap_oracle(exact_sorted(values))

    @pytest.mark.parametrize("n", range(1, 11))
    def test_line_and_sigma_gaps_match_the_loop_oracle(self, n):
        w = Window1D.symmetric(n)
        for line in (line_closed_form(n), sigma_1d(w, w)):
            assert lineanalysis._min_gap(line.rows) == min_gap_oracle(line.values)

    def test_exact_gap_comparison(self):
        # the float report mirrors an exactly-decidable inequality
        from quasih.lineanalysis import _min_gap

        for n in range(1, 8):
            w = Window1D.symmetric(n)
            d_line = _min_gap(line_closed_form(n).rows)
            d_sigma = _min_gap(sigma_1d(w, w).rows)
            assert (d_line - d_sigma).sign() >= 0


class TestFragmentConsistency:
    @pytest.mark.parametrize("n", range(5))
    def test_real_axis_section_matches_closed_form(self, n):
        fragment = generate(GroupId.H2, n)
        section = {x.p for x in cyclo_points(fragment) if x.is_real()}
        assert section == line_closed_form(n).value_set()
