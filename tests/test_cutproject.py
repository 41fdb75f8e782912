import cmath
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quasih import cutproject, kernel
from quasih.golden import CycloInt, GoldenInt, TAU, xi_pow
from quasih.rootsystem import GroupId, cyclo_from_omega, roots_omega
from quasih.fragment import Fragment, ResourceLimitError, generate
from quasih.cutproject import (
    DecagonWindow,
    decagon_contains,
    decagon_contains_exact,
    deficiencies_2d,
    fragment_in_window,
    sigma_2d,
)


def _module_point(x1, x2, x3, x4):
    return CycloInt.from_golden(GoldenInt(x1, x2)) + xi_pow(4) * GoldenInt(x3, x4)


@st.composite
def _window_samples(draw):
    """A radius n <= 4 and module points: some anywhere in the box
    |x_i| <= 2n, some one unit step or less from a member of Sigma(D(n))."""
    n = draw(st.integers(1, 4))
    coord = st.integers(-2 * n, 2 * n)
    box = draw(st.lists(st.tuples(coord, coord, coord, coord), max_size=20))
    points = [_module_point(*c) for c in box]
    members = sigma_2d(n).points
    step = st.integers(-1, 1)
    for i, c in draw(st.lists(st.tuples(st.integers(0, len(members) - 1),
                                        st.tuples(step, step, step, step)), max_size=20)):
        points.append(members[i] + _module_point(*c))
    return n, points


class TestWindow:
    def test_vertices_on_circle(self):
        win = DecagonWindow(3)
        for v in win.vertices_complex():
            assert abs(v) == pytest.approx(3.0, abs=1e-12)

    def test_vertex_count_and_rotation(self):
        win = DecagonWindow(2)
        verts = set(win.vertices())
        assert len(verts) == 10
        assert {xi_pow(1) * v for v in verts} == verts
        assert {-v for v in verts} == verts


class TestContains:
    def test_origin(self):
        assert decagon_contains(0j, 1)
        assert decagon_contains_exact(CycloInt(), 1)

    def test_vertex_on_boundary(self):
        n = 4
        assert decagon_contains(n * cmath.exp(3j * math.pi / 5), n)
        assert decagon_contains_exact(xi_pow(3) * n, n)

    def test_point_beyond_vertex(self):
        assert not decagon_contains(1.01 * cmath.exp(3j * math.pi / 5), 1)

    def test_edge_midpoint_inside(self):
        mid = (cmath.exp(0j) + cmath.exp(1j * math.pi / 5)) / 2
        assert decagon_contains(mid, 1)
        assert not decagon_contains(mid * 1.02, 1)

    def test_exact_agrees_with_float(self):
        # away from the boundary the two tests must agree
        for a in range(-3, 4):
            for b in range(-3, 4):
                for c in range(-3, 4):
                    x = CycloInt(GoldenInt(a, b), GoldenInt(c, 0))
                    z = x.embed()
                    verdicts = (
                        decagon_contains(z, 2, tol=-1e-7),
                        decagon_contains(z, 2, tol=1e-7),
                    )
                    if verdicts[0] == verdicts[1]:
                        assert decagon_contains_exact(x, 2) == verdicts[0]

    def test_rejects_nonpositive_radius(self):
        with pytest.raises(ValueError):
            decagon_contains_exact(CycloInt(), 0)


class TestStarOnRoots:
    def test_delta2_star_is_permutation(self):
        roots = {cyclo_from_omega(v) for v in roots_omega(GroupId.H2)}
        assert {x.star() for x in roots} == roots


class TestSigma2D:
    @pytest.mark.parametrize("n", (1, 2))
    def test_equals_fragment_at_small_n(self, n):
        assert sigma_2d(n).point_set() == set(generate(GroupId.H2, n).cyclo_points())

    def test_n1_count(self):
        assert sigma_2d(1).size == 11

    @pytest.mark.parametrize("n", (1, 2, 3, 4))
    def test_contains_fragment(self, n):
        assert set(generate(GroupId.H2, n).cyclo_points()) <= sigma_2d(n).point_set()

    @pytest.mark.parametrize("n", (1, 3))
    def test_members_and_stars_in_window(self, n):
        for x in sigma_2d(n).points:
            assert decagon_contains_exact(x, n)
            assert decagon_contains_exact(x.star(), n)

    def test_rotation_and_negation_invariance(self):
        pts = sigma_2d(3).point_set()
        assert {xi_pow(1) * x for x in pts} == pts
        assert {-x for x in pts} == pts

    def test_canonical_order(self):
        keys = [x.sort_key() for x in sigma_2d(2).points]
        assert keys == sorted(keys)

    def test_box_cap(self):
        with pytest.raises(ResourceLimitError):
            sigma_2d(5, box_cap=10)

    def test_largest_n_under_default_cap(self, monkeypatch):
        # |x_i| <= 5n//4 + 1: 55^4 boxes fit at n = 21, 57^4 do not at n = 22;
        # the uncached function with a stub scan checks the cap alone
        empty = np.zeros((0, 4), dtype=np.int64)
        monkeypatch.setattr(cutproject, "box_nonnegative", lambda *args: empty)
        assert sigma_2d.__wrapped__(21).size == 0
        with pytest.raises(ResourceLimitError, match="10556001 points"):
            sigma_2d.__wrapped__(22)

    @pytest.mark.parametrize("n", (1, 2))
    def test_equals_scalar_scan(self, n):
        # every module point (x1 + x2 tau) + (x3 + x4 tau) xi^4 in |x_i| <= 2n,
        # a box in another basis than the scan's, tested edge by edge
        bound = 2 * n
        expect = set()
        for x1, x2, x3, x4 in itertools.product(range(-bound, bound + 1), repeat=4):
            x = _module_point(x1, x2, x3, x4)
            if decagon_contains_exact(x, n) and decagon_contains_exact(x.star(), n):
                expect.add(x)
        assert sigma_2d(n).point_set() == expect

    @given(_window_samples())
    @settings(max_examples=60)
    def test_membership_matches_scalar(self, case):
        n, points = case
        members = sigma_2d(n).point_set()
        for x in points:
            inside = decagon_contains_exact(x, n) and decagon_contains_exact(x.star(), n)
            assert (x in members) == inside

    @given(st.integers(1, 6),
           st.lists(st.tuples(*[st.integers(-40, 40)] * 4), min_size=1, max_size=20))
    def test_edge_forms_compile(self, n, coords):
        def forms(c):
            x = CycloInt(GoldenInt(c[0], c[1]), GoldenInt(c[2], c[3]))
            return cutproject._edge_forms(x, n) + cutproject._edge_forms(x.star(), n)

        rows = np.array(coords, dtype=np.int64)
        values = kernel.apply(kernel.compile_forms(forms, 4), rows)
        assert values.tolist() == [[c for v in forms(p) for c in (v.a, v.b)] for p in coords]


class TestDeficiencies2D:
    def test_empty_at_one_and_two(self):
        assert deficiencies_2d(1) == ()
        assert deficiencies_2d(2) == ()

    @pytest.mark.parametrize("n", (3, 4, 5))
    def test_nonempty_from_three(self, n):
        assert deficiencies_2d(n)

    def test_real_axis_members_match_1d(self):
        from quasih.lineanalysis import deficiencies_1d

        for n in (3, 4):
            two_d = {x.p for x in deficiencies_2d(n) if x.is_real()}
            assert two_d == set(deficiencies_1d(n))

    def test_example_point_present(self):
        assert CycloInt.from_golden(GoldenInt(-1, 2)) in set(deficiencies_2d(3))

    def test_invariant_under_rotation(self):
        d = set(deficiencies_2d(3))
        assert {xi_pow(1) * x for x in d} == d


class TestFragmentInWindow:
    @pytest.mark.parametrize("n", range(6))
    def test_window_containment(self, n):
        assert fragment_in_window(generate(GroupId.H2, n))

    @pytest.mark.parametrize("n", range(1, 7))
    def test_equals_scalar_all_points_test(self, n):
        # the points of the cut-off n fragment against D(n - 1): all of
        # them, those with x inside (star(x) alone decides) and those with
        # star(x) inside (x alone decides)
        whole = generate(GroupId.H2, n)
        cutoff = max(n - 1, 1)
        inside = np.array([
            (decagon_contains_exact(x, cutoff), decagon_contains_exact(x.star(), cutoff))
            for x in whole.cyclo_points()
        ])
        for keep in (slice(None), inside[:, 0], inside[:, 1]):
            f = Fragment(GroupId.H2, cutoff, whole.coeffs[keep], "test")
            assert fragment_in_window(f) == inside[keep].all()

    def test_rejects_points_outside_the_window(self):
        f = Fragment(GroupId.H2, 2, generate(GroupId.H2, 3).coeffs, "test")
        assert not fragment_in_window(f)

    def test_outermost_shell_touches_vertices(self):
        # the dominant outer point n*alpha_H maps to the window vertex n*xi^2
        n = 3
        f = generate(GroupId.H2, n)
        assert xi_pow(2) * n in set(f.cyclo_points())
        assert xi_pow(2) * n in set(DecagonWindow(n).vertices())
