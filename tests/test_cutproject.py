import cmath
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from quasih import cutproject, golden, kernel
from quasih.golden import CycloInt, GoldenInt, TAU, xi_pow
from quasih.rootsystem import GroupId, cyclo_from_omega, roots_omega
from quasih.fragment import Fragment, ResourceLimitError, generate
from quasih.cutproject import deficiencies_2d, fragment_in_window, sigma_2d
from quasih.lineanalysis import line_bruteforce, line_closed_form, sigma_1d
from oracles import (
    DecagonWindow,
    cyclo_points,
    cyclo_set,
    decagon_contains,
    decagon_contains_exact,
    values,
)


def _sigma_points(n):
    """The members of ``sigma_2d(n)`` in key order."""
    return sorted(cyclo_set(sigma_2d(n)), key=CycloInt.sort_key)


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
    members = _sigma_points(n)
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
        assert cyclo_set(sigma_2d(n)) == set(cyclo_points(generate(GroupId.H2, n)))

    def test_n1_count(self):
        assert len(sigma_2d(1)) == 11

    @pytest.mark.parametrize("n", (1, 2, 3, 4))
    def test_contains_fragment(self, n):
        assert set(cyclo_points(generate(GroupId.H2, n))) <= cyclo_set(sigma_2d(n))

    @pytest.mark.parametrize("n", (1, 3))
    def test_members_and_stars_in_window(self, n):
        for x in cyclo_set(sigma_2d(n)):
            assert decagon_contains_exact(x, n)
            assert decagon_contains_exact(x.star(), n)

    def test_rotation_and_negation_invariance(self):
        pts = cyclo_set(sigma_2d(3))
        assert {xi_pow(1) * x for x in pts} == pts
        assert {-x for x in pts} == pts

    def test_canonical_order(self):
        # key order is the lexicographic order of the sort_key rows
        keys = sigma_2d(2)
        rows = kernel.unpack_keys(keys, 4).tolist()
        assert (keys[1:] > keys[:-1]).all() and rows == sorted(rows)

    def test_box_cap(self, monkeypatch):
        # uncached, so a memoized sigma_2d(5) cannot skip the cap
        monkeypatch.setattr(cutproject, "BOX_CAP", 10)
        with pytest.raises(ResourceLimitError):
            sigma_2d.__wrapped__(5)

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
        assert cyclo_set(sigma_2d(n)) == expect

    @given(_window_samples())
    @settings(max_examples=60)
    def test_membership_matches_scalar(self, case):
        n, points = case
        members = cyclo_set(sigma_2d(n))
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
        values = kernel.apply(golden.compile_forms(forms, 4), rows)
        assert values.tolist() == [[c for v in forms(p) for c in (v.a, v.b)] for p in coords]

    def test_window_forms_equal_the_per_radius_compile(self):
        for n in range(1, 22):
            def forms(c):
                x = CycloInt(GoldenInt(c[0], c[1]), GoldenInt(c[2], c[3]))
                return cutproject._edge_forms(x, n) + cutproject._edge_forms(x.star(), n)

            got, want = cutproject._window_forms(n), golden.compile_forms(forms, 4)
            for a, b in zip(got, want):
                assert a.dtype == b.dtype and np.array_equal(a, b)
                assert not a.flags.writeable

    def test_window_forms_compile_once(self, monkeypatch):
        calls = []

        def counted(fn, dims):
            calls.append(dims)
            return golden.compile_forms(fn, dims)

        monkeypatch.setattr(cutproject, "compile_forms", counted)
        cutproject._decagon_forms.cache_clear()
        try:
            for n in range(1, 6):
                cutproject._window_forms(n)
        finally:
            cutproject._decagon_forms.cache_clear()
        assert calls == [5]


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
            assert two_d == set(values(deficiencies_1d(n)))

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
            for x in cyclo_points(whole)
        ])
        for keep in (slice(None), inside[:, 0], inside[:, 1]):
            f = Fragment.from_rows(GroupId.H2, cutoff, whole.rows()[keep])
            assert fragment_in_window(f) == inside[keep].all()

    def test_rejects_points_outside_the_window(self):
        f = Fragment.from_rows(GroupId.H2, 2, generate(GroupId.H2, 3).rows())
        assert not fragment_in_window(f)

    @pytest.mark.parametrize("group", [GroupId.A2, GroupId.H3])
    def test_other_groups_are_refused(self, group):
        with pytest.raises(ValueError, match="the decagonal window is an H2 property"):
            fragment_in_window(generate(group, 1))

    def test_outermost_shell_touches_vertices(self):
        # the dominant outer point n*alpha_H maps to the window vertex n*xi^2
        n = 3
        f = generate(GroupId.H2, n)
        assert xi_pow(2) * n in set(cyclo_points(f))
        assert xi_pow(2) * n in set(DecagonWindow(n).vertices())


def _scalar_min_distance(points):
    """The least exact |x - y|^2 over pairs, by GoldenInt comparison, and
    the least float |x.embed() - y.embed()| over pairs, as the float loop
    of the ``min-distance`` check computed it."""
    best, best_float = None, float("inf")
    embedded = [x.embed() for x in points]
    for i, x in enumerate(points):
        for j in range(i + 1, len(points)):
            d = x - points[j]
            norm = (d * d.complex_conj()).p
            if best is None or (norm - best).sign() < 0:
                best = norm
            best_float = min(best_float, abs(embedded[i] - embedded[j]))
    return best, best_float


def _assert_equals_scalar(coords):
    """``min_distance_2d`` of the rows ``coords`` gives the exact value and
    the ``float.hex`` of ``_scalar_min_distance``."""
    exact, dist = cutproject.min_distance_2d(np.array(coords, dtype=np.int64))
    expect_exact, expect_dist = _scalar_min_distance([cutproject._point(c) for c in coords])
    assert exact == expect_exact
    assert dist.hex() == expect_dist.hex()
    return exact, dist


@st.composite
def _sweep_sets(draw):
    """Distinct module points built to stress the real-part sweep of
    ``min_distance_2d``, in any order: a column of rows sharing one real
    part, which never retire while they meet each other, translates of
    some of the points by one step, whose pairs tie at offsets that differ
    with the rows between them, a few points anywhere, or just two."""
    small = st.integers(-4, 4)
    point = st.tuples(small, small, small, small)
    rows = set(draw(st.lists(point, max_size=6)))
    # 2*Re(x) = (2p.a + q.b) + (2p.b + q.a + q.b)*tau stays (ra, rb)
    ra, rb = draw(small), draw(small)
    for pa, pb in draw(st.lists(st.tuples(small, small), min_size=2, max_size=12)):
        qb = ra - 2 * pa
        rows.add((pa, pb, rb - 2 * pb - qb, qb))
    step = draw(st.tuples(*[st.integers(-1, 1)] * 4).filter(any))
    for x in draw(st.lists(st.sampled_from(sorted(rows)), min_size=1, max_size=12)):
        rows.add(tuple(c + s for c, s in zip(x, step)))
    if draw(st.sampled_from(range(5))) == 4:
        rows = set(draw(st.lists(point, min_size=2, max_size=2, unique=True)))
    assume(len(rows) >= 2)
    return draw(st.permutations(sorted(rows)))


class TestMinDistance2D:
    @given(st.lists(st.tuples(*[st.integers(-6, 6)] * 4), min_size=2, max_size=40, unique=True))
    @settings(max_examples=80)
    def test_equals_scalar_brute_force(self, coords):
        _assert_equals_scalar(coords)

    @given(_sweep_sets())
    @settings(max_examples=150)
    def test_sweep_sets_equal_scalar_brute_force(self, coords):
        _assert_equals_scalar(coords)

    def test_tie_at_the_retirement_bound_is_visited(self):
        # 0 and h = -3 + 2*tau differ by a real step, so (2*dRe)^2 = 4|h|^2
        # exactly; the last row lies between them in real part, which puts
        # that pair at offset 2, after the pair (y, y + xi*h) at offset 1
        # has set delta = |h|^2.  The real pair has the least float of the tie
        exact, dist = _assert_equals_scalar(
            [(0, 0, 0, 0), (-3, 2, 0, 0), (40, 0, -3, -3), (40, 0, -6, -1), (-27, 17, -20, 12)])
        assert exact == GoldenInt(13, -8)
        assert dist.hex() == "0x1.e3779b97f4a80p-3"

    @given(st.lists(st.tuples(*[st.integers(-6, 6)] * 4), min_size=2, max_size=30, unique=True),
           st.sampled_from((float("nan"), 100.0, -100.0)))
    @settings(max_examples=40)
    def test_exact_under_a_wrong_float_proposal(self, coords, phi):
        # the float argmin only proposes; exact signs find the minimum
        rows = np.array(coords, dtype=np.int64)
        expect = cutproject.min_distance_2d(rows)[0]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cutproject, "PHI", phi)
            assert cutproject.min_distance_2d(rows)[0] == expect

    @pytest.mark.parametrize("phi", (-golden.PHI, float("nan")))
    def test_wrong_float_order_of_the_sweep_raises(self, monkeypatch, phi):
        # 2*Re is 1 in the first row and tau in the second; either float
        # proposal puts tau first, which is refused, never swept
        monkeypatch.setattr(kernel, "PHI", phi)
        rows = np.array([[0, 0, -1, 1], [0, 0, 1, 0]], dtype=np.int64)
        with pytest.raises(AssertionError, match="not strictly ascending"):
            cutproject.min_distance_2d(rows)

    def test_peak_traced_allocation(self):
        # O(N) arrays of the 1,991 rows; the pair blocks took 6.3 MB
        rows = kernel.unpack_keys(sigma_2d(5), 4)
        tracemalloc.start()
        try:
            cutproject.min_distance_2d(rows)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * 2**20

    @pytest.mark.parametrize("n", (1, 2, 3))
    def test_window_sets_match_the_float_loop(self, n):
        for points in (_sigma_points(n), cyclo_points(generate(GroupId.H2, n))):
            rows = np.array([x.sort_key() for x in points], dtype=np.int64)
            exact, dist = cutproject.min_distance_2d(rows)
            expect_exact, expect_dist = _scalar_min_distance(points)
            assert exact == expect_exact
            assert dist.hex() == expect_dist.hex()

    def test_needs_two_points(self):
        with pytest.raises(ValueError):
            cutproject.min_distance_2d(np.zeros((1, 4), dtype=np.int64))

    def test_past_int64_guard_raises(self):
        # values passed to golden_sign must stay below 2^29: coefficients
        # up to 2^10 pass
        ok = np.array([[0, 0, 0, 0], [1 << 10, 0, 0, 0]], dtype=np.int64)
        assert cutproject.min_distance_2d(ok)[0] == GoldenInt(1 << 20, 0)
        with pytest.raises(ResourceLimitError):
            cutproject.min_distance_2d(np.array([[0, 0, 0, 0], [1 << 11, 0, 0, 0]], dtype=np.int64))

    @pytest.mark.parametrize("coords", ("diagonal", "grid"))
    def test_guard_admits_no_failure_part_way(self, coords):
        # m = 1,234 is the largest coefficient the guard admits.  The rows
        # -m, 0 and m in every coordinate meet the widest real-part gap at
        # offset 2, where golden_sign gets 116 m^2; the grid {-m, 0, m}^4
        # has many pairs of large values
        m = 1234
        cube = (-m, 0, m)
        points = [(v,) * 4 for v in cube] if coords == "diagonal" else list(itertools.product(cube, repeat=4))
        _assert_equals_scalar(points)
        with pytest.raises(ResourceLimitError):
            cutproject.min_distance_2d(np.array(points, dtype=np.int64) * (m + 1) // m)


class TestDeficiencyRows:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_equal_the_scalar_list_in_order(self, n):
        fragment_points = frozenset(cyclo_points(generate(GroupId.H2, n)))
        expect = [x for x in _sigma_points(n) if x not in fragment_points]
        assert list(deficiencies_2d(n)) == expect
        assert cutproject.deficiency_rows_2d(n).tolist() == [list(x.sort_key()) for x in expect]

    def test_sigma_keys_are_the_packed_fragment_at_two(self):
        # sigma_2d(2) is the n = 2 fragment: the same 61 packed keys, sorted
        keys = sigma_2d.__wrapped__(2)
        fragment_rows = kernel.cyclo_rows(generate(GroupId.H2, 2).rows())
        assert keys.dtype == np.uint64 and len(keys) == 61
        assert np.array_equal(keys, np.sort(kernel.pack_rows(fragment_rows)))


class TestReadOnlyResults:
    @pytest.mark.parametrize("sets", (line_closed_form, line_bruteforce, sigma_1d, sigma_2d))
    def test_point_arrays_are_read_only(self, sets):
        points = sets(2)
        assert not points.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            points[0] = 0
