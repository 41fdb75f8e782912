from collections import Counter
from fractions import Fraction
from functools import cmp_to_key, lru_cache
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quasih import kernel
from quasih.affine import operators

from quasih.golden import GoldenInt, GoldenRational, TAU, xi_pow
from quasih.rootsystem import (
    AlphaVector,
    GroupId,
    OmegaVector,
    norm_sq,
    omega_from_alpha,
    roots_omega,
    to_dominant,
)
from quasih.fragment import (
    DEFAULT_CAP,
    Fragment,
    ResourceLimitError,
    _orbit_sizes,
    check_tenfold,
    generate,
    generate_rootsum,
    orbits,
    shells,
)
from quasih.serialize import fragment_svg
from oracles import closure, cyclo_points, points, word_fragment, word_levels


@pytest.fixture(scope="module")
def q2():
    return {n: generate(GroupId.H2, n) for n in range(5)}


class TestGenerate:
    def test_counts(self, q2):
        assert q2[0].size == 1
        assert q2[1].size == 11
        assert q2[2].size == 61

    def test_q1_is_origin_plus_roots(self, q2):
        expected = set(roots_omega(GroupId.H2)) | {OmegaVector.zero(GroupId.H2)}
        assert set(points(q2[1])) == expected

    def test_contains_origin(self, q2):
        for f in q2.values():
            assert OmegaVector.zero(GroupId.H2) in set(points(f))

    def test_strict_nesting(self, q2):
        for n in range(1, 5):
            assert set(points(q2[n - 1])) < set(points(q2[n]))

    def test_canonical_order(self, q2):
        flats = [p.flat() for p in points(q2[3])]
        assert flats == sorted(flats)

    def test_closed_under_reflections(self, q2):
        from quasih.affine import operators

        ops = operators(GroupId.H2)
        pts = set(points(q2[2]))
        for r in ops.reflections:
            assert {r.apply(p) for p in pts} == pts

    def test_points_within_distance_n(self, q2):
        for n, f in q2.items():
            bound = GoldenRational(n * n)
            for p in points(f):
                assert (norm_sq(p) - bound).sign() <= 0

    def test_cap_enforced(self):
        with pytest.raises(ResourceLimitError):
            generate(GroupId.H2, 3, cap=50)

    def test_cap_boundaries(self):
        # H2 n=1: the reflection closure holds the 10 roots, the fragment 11 points
        with pytest.raises(ResourceLimitError, match="^reflection closure exceeded cap 9$"):
            generate(GroupId.H2, 1, cap=9)
        with pytest.raises(ResourceLimitError, match="^fragment exceeded cap 10$"):
            generate(GroupId.H2, 1, cap=10)
        assert generate(GroupId.H2, 1, cap=11).size == 11

    def test_cap_counts_the_origin(self):
        with pytest.raises(ResourceLimitError, match="fragment exceeded cap 0"):
            generate(GroupId.H2, 0, cap=0)
        assert generate(GroupId.H2, 0, cap=1).size == 1

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError):
            generate(GroupId.H2, -1)


class TestWordOracle:
    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_equals_the_word_levels_or_raises_alike(self, data):
        # every cap from the origin alone to one past the fragment's size
        group = data.draw(st.sampled_from(list(GroupId)))
        n = data.draw(st.integers(0, 2 if group is GroupId.H4 else 4))
        cap = data.draw(st.integers(1, _cached(group, n).size + 1))
        try:
            expect = word_fragment(group, n, cap)
        except ResourceLimitError as err:
            with pytest.raises(ResourceLimitError, match=f"^{err}$"):
                generate(group, n, cap=cap)
        else:
            assert np.array_equal(generate(group, n, cap=cap).keys, expect)

    def test_refusal_expands_nothing(self):
        # the default cap refuses H4 at level 7 from the dominant rows alone
        generate(GroupId.H4, 1)  # W.t is grown once per group, before the patch
        with mock.patch.object(kernel, "orbit_keys", side_effect=AssertionError("expanded")):
            with pytest.raises(ResourceLimitError, match=f"^reflection closure exceeded cap {DEFAULT_CAP}$"):
                generate(GroupId.H4, 7)


def _growth(group, n):
    """The growth polynomials |F_n| fitted in exact arithmetic; a test
    oracle, not a proved law."""
    n = Fraction(n)
    inner = {
        GroupId.A2: 3,
        GroupId.H2: Fraction(5, 4) * (n**2 + n + 2),
        GroupId.H3: (19 * n**4 + 38 * n**3 + 92 * n**2 + 73 * n + 78) / 20,
        GroupId.H4: (42 * n**6 + 95 * n**5 + 192 * n**4 + 305 * n**3 + 318 * n**2 + 200 * n + 108) / 21,
    }[group]
    return 1 + n * (n + 1) * inner


class TestGrowthLaw:
    @pytest.mark.parametrize("group,nmax", [
        (GroupId.A2, 20), (GroupId.H2, 12), (GroupId.H3, 6), (GroupId.H4, 4),
    ])
    def test_sizes(self, group, nmax):
        assert [generate(group, n).size for n in range(nmax + 1)] == [
            _growth(group, n) for n in range(nmax + 1)
        ]

    @pytest.mark.parametrize("group", list(GroupId))
    def test_reciprocity_holds_except_for_h4(self, group):
        # p has degree 2k <= 8, so equality at 9 points is an identity
        symmetric = all(_growth(group, -1 - n) == _growth(group, n) for n in range(9))
        assert symmetric == (group is not GroupId.H4)


class TestLevelNesting:
    @pytest.mark.parametrize("group,nmax", [
        (GroupId.A2, 6), (GroupId.H2, 6), (GroupId.H3, 4), (GroupId.H4, 3),
    ])
    def test_levels_nest_two_apart(self, group, nmax):
        # S_{m-1} is inside S_{m+1}, so S_0 u ... u S_n = S_{n-1} u S_n
        levels = list(word_levels(group, nmax, DEFAULT_CAP))
        for below, above in zip(levels, levels[2:]):
            assert np.isin(below, above).all()
        for n in range(nmax + 1):
            union = np.unique(np.concatenate(levels[:n + 1]), return_index=True)[0]
            assert np.array_equal(generate(group, n).keys, union)

    def test_consecutive_levels_do_not_nest(self):
        # the identity skips a level: S_0 = {O} is not inside S_1 for H2
        levels = list(word_levels(GroupId.H2, 1, DEFAULT_CAP))
        assert not np.isin(levels[0], levels[1]).all()


class TestStorage:
    @pytest.mark.parametrize("slab", (1, 7, 1000))
    def test_rows_slabs_concatenate_to_coeffs(self, slab):
        f = generate(GroupId.H3, 3)
        slabs = [f.rows(start, start + slab) for start in range(0, f.size, slab)]
        assert np.array_equal(np.concatenate(slabs), f.rows())
        assert np.array_equal(kernel.pack_rows(f.rows()), f.keys)

    def test_keys_are_sorted_distinct_and_read_only(self):
        f = generate(GroupId.H4, 2)
        assert (f.keys[1:] > f.keys[:-1]).all()
        with pytest.raises(ValueError):
            f.keys[0] = 0

    def test_from_rows_keeps_row_order(self):
        rows = np.array([[3, 0, -1, 2], [0, 0, 0, 0], [3, 0, -1, 2]])
        f = Fragment.from_rows(GroupId.H2, 0, rows)
        assert f.rows().tolist() == rows.tolist() and f.size == 3

    def test_from_rows_refuses_a_wrong_width(self):
        # reshaped, a (4, 3) array would be three H2 points
        with pytest.raises(ValueError, match=r"\(N, 4\)"):
            Fragment.from_rows(GroupId.H2, 0, np.zeros((4, 3), dtype=np.int64))

    def test_from_rows_refuses_rows_of_another_rank(self):
        # reshaped, two H2 rows would be one H4 point
        with pytest.raises(ValueError, match=r"\(N, 8\)"):
            Fragment.from_rows(GroupId.H4, 0, np.ones((2, 4), dtype=np.int64))

    def test_from_rows_refuses_non_integer_entries(self):
        # cast, 0.7 would be 0 and the row the origin
        with pytest.raises(ValueError, match="float64"):
            Fragment.from_rows(GroupId.H2, 0, [[0.7, 0, 0, 0]])

    def test_from_rows_admits_no_rows(self):
        assert Fragment.from_rows(GroupId.H2, 0, np.zeros((0, 4), dtype=np.int64)).size == 0
        assert Fragment.from_rows(GroupId.H4, 0, np.zeros((0, 8))).size == 0

    def test_rows_are_not_keys(self):
        with pytest.raises(TypeError, match="from_rows"):
            Fragment(GroupId.H2, 0, np.zeros((1, 4), dtype=np.int64))


class TestRootSumOracle:
    @pytest.mark.parametrize("group,nmax", [
        (GroupId.H2, 4), (GroupId.H3, 3), (GroupId.H4, 2),
    ])
    def test_equals_word_bfs(self, group, nmax):
        for n in range(nmax + 1):
            assert points(generate(group, n)) == points(generate_rootsum(group, n))

    @pytest.mark.parametrize("group,nmax", [
        (GroupId.H2, 10), (GroupId.H3, 5), (GroupId.H4, 4),
    ])
    def test_coeffs_equal_word_bfs_at_larger_sizes(self, group, nmax):
        for n in range(nmax + 1):
            assert np.array_equal(generate(group, n).rows(), generate_rootsum(group, n).rows())

    def test_h3_n1_count(self):
        assert generate_rootsum(GroupId.H3, 1).size == 31

    def test_h4_n1_count(self):
        assert generate_rootsum(GroupId.H4, 1).size == 121


class TestDominant:
    def test_already_dominant(self):
        ah = omega_from_alpha(AlphaVector.make(GroupId.H2, (TAU, TAU)))
        dom, word = to_dominant(ah)
        assert dom == ah and word == ()

    def test_reflected_point_returns(self):
        from quasih.affine import operators

        ops = operators(GroupId.H2)
        ah = omega_from_alpha(AlphaVector.make(GroupId.H2, (TAU, TAU)))
        moved = ops.reflections[0].apply(ah)
        dom, word = to_dominant(moved)
        assert dom == ah
        assert len(word) >= 1

    def test_pentagon_orbit_members_map_back(self):
        # the five points of the (a, 0) orbit share one dominant point
        a = GoldenInt(3, 1)
        start = OmegaVector.make(GroupId.H2, (a, GoldenInt(0)))
        from quasih.rootsystem import orbit_of

        members = orbit_of(start)
        assert len(members) == 5
        for m in members:
            assert to_dominant(m)[0] == start

    def test_word_replays_to_dominant(self):
        from quasih.affine import operators

        ops = operators(GroupId.H3)
        v = OmegaVector.make(GroupId.H3, (GoldenInt(-2, 1), GoldenInt(1), GoldenInt(0, -3)))
        dom, word = to_dominant(v)
        replay = v
        for i in word:
            replay = ops.reflections[i].apply(replay)
        assert replay == dom and dom.is_dominant()


class TestOrbits:
    def test_q2_2_decomposition(self, q2):
        sizes = sorted(orbits(q2[2])[1].tolist())
        assert sizes == [1, 5, 5, 5, 5, 10, 10, 10, 10]
        assert sum(sizes) == 61

    def test_each_orbit_has_one_dominant_member(self, q2):
        f = q2[3]
        pts = points(f)
        for d, (_, _, index) in zip(orbits(f)[0].tolist(), _sweep_orbits(f)):
            dominants = [pts[i] for i in index.tolist() if pts[i].is_dominant()]
            assert dominants == [OmegaVector.from_flat(f.group, d)]

    def test_h2_orbit_size_rule(self, q2):
        for d, size in zip(*(x.tolist() for x in orbits(q2[3]))):
            a, b = OmegaVector.from_flat(GroupId.H2, d).coords
            if a.sign() > 0 and b.sign() > 0:
                assert size == 10
            elif a.is_zero() and b.is_zero():
                assert size == 1
            else:
                assert size == 5

    def test_root_orbit_sizes(self):
        from quasih.rootsystem import highest_root, orbit_of

        assert len(orbit_of(highest_root(GroupId.H3))) == 30
        assert len(orbit_of(highest_root(GroupId.H4))) == 120

    def test_orbit_sizes_divide_group_order(self, q2):
        order = {GroupId.H2: 10, GroupId.H3: 120, GroupId.H4: 14400}
        for size in orbits(q2[2])[1].tolist():
            assert order[GroupId.H2] % size == 0


@lru_cache(maxsize=None)
def _cached(group, n):
    return generate(group, n)


def _sweep_orbits(f):
    """(dominant row, row count, member row indices) per dominant point, in
    key order, by the ``dominant_rows`` sweep over every row."""
    refl = [r.compiled() for r in operators(f.group).reflections]
    rows = f.rows()
    keys = kernel.pack_rows(kernel.dominant_rows(rows, refl))
    distinct = np.unique(keys, return_index=True)[0]
    return [
        (tuple(kernel.unpack_keys(distinct[i:i + 1], rows.shape[1])[0].tolist()),
         int((keys == key).sum()), np.flatnonzero(keys == key))
        for i, key in enumerate(distinct)
    ]


class TestOrbitFilter:
    @given(
        st.sampled_from([(g, n) for g in GroupId for n in range(4)]),
        st.one_of(st.none(), st.integers(0, 10**6)),
    )
    @settings(max_examples=40, deadline=None)
    def test_equals_the_dominant_sweep(self, case, drop):
        # the whole fragment is W-invariant; one row dropped breaks the
        # invariance and must raise, unless the row is the origin, the one
        # point every reflection fixes
        f = _cached(*case)
        invariant = True
        if drop is not None:
            keep = np.ones(f.size, dtype=bool)
            keep[drop % f.size] = False
            invariant = not f.rows(drop % f.size, drop % f.size + 1).any()
            f = Fragment(f.group, f.n, f.keys[keep])
        if not invariant:
            with pytest.raises(ValueError, match="closed under the reflections"):
                orbits(f)
            return
        dominant, sizes = orbits(f)
        assert list(zip(map(tuple, dominant.tolist()), sizes.tolist())) == [(d, c) for d, c, _ in _sweep_orbits(f)]

    @pytest.mark.parametrize("group", list(GroupId))
    def test_size_table_is_the_orbit_of_each_face_point(self, group):
        k = group.rank
        refl = [r.compiled() for r in operators(group).reflections]
        for mask in range(1 << k):
            row = np.array([[0 if mask >> i & 1 else 1, 0] for i in range(k)]).reshape(1, -1)
            orbit = closure(kernel.pack_rows(row), refl, 2 * k)
            assert _orbit_sizes(group, row).tolist() == [orbit.size]

    def test_origin_dropped_keeps_the_filter(self, q2):
        f = Fragment(GroupId.H2, 2, q2[2].keys[np.flatnonzero(q2[2].rows().any(axis=1))])
        assert sorted(orbits(f)[1].tolist()) == [5, 5, 5, 5, 10, 10, 10, 10]

    def test_repeated_origin_raises(self, q2):
        # the orbit sizes and the walk of the two origin rows both match the
        # keys; only distinctness tells them apart
        origin = kernel.pack_rows(np.zeros((1, 4), dtype=np.int64))
        f = Fragment(GroupId.H2, 2, np.sort(np.append(q2[2].keys, origin)))
        with pytest.raises(ValueError, match="sorted distinct keys"):
            orbits(f)

    def test_reversed_keys_raise(self, q2):
        f = Fragment(GroupId.H2, 2, q2[2].keys[::-1].copy())
        with pytest.raises(ValueError, match="sorted distinct keys"):
            orbits(f)


class TestCarriedRows:
    """A generated fragment carries its dominant rows; the same keys in a
    fragment built without them take the guard, with equal results."""

    @pytest.mark.parametrize("group,n", [(g, n) for g in GroupId for n in range(3 if g is GroupId.H4 else 5)])
    def test_equals_the_guarded_path(self, group, n):
        f = _cached(group, n)
        guarded = Fragment(group, n, f.keys)
        assert f.dominant is not None and guarded.dominant is None
        for got, want in zip(orbits(f), orbits(guarded)):
            assert got.dtype == want.dtype == np.int64
            assert np.array_equal(got, want)
        (norms, counts), (want_norms, want_counts) = shells(f), shells(guarded)
        assert norms == want_norms
        assert counts.dtype == want_counts.dtype == np.int64
        assert np.array_equal(counts, want_counts)

    @pytest.mark.parametrize("n", range(7))
    def test_svg_equals_the_guarded_path(self, n):
        f = _cached(GroupId.H2, n)
        assert fragment_svg(f) == fragment_svg(Fragment(GroupId.H2, n, f.keys))

    def test_only_generate_sets_the_rows(self):
        f = _cached(GroupId.H2, 2)
        with pytest.raises(TypeError):
            Fragment(GroupId.H2, 2, f.keys, dominant=f.dominant)
        assert Fragment.from_rows(GroupId.H2, 2, f.rows()).dominant is None
        assert generate_rootsum(GroupId.H2, 2).dominant is None

    def test_orbit_arrays_are_read_only(self):
        f = _cached(GroupId.H3, 2)
        for g in (f, Fragment(f.group, f.n, f.keys)):
            for array in orbits(g):
                with pytest.raises(ValueError):
                    array[0] = 0

    def test_non_invariant_input_raises_the_guard_error(self):
        # one H2 root without its orbit: shells and the SVG colours need
        # the orbits, so they refuse it as ``orbits`` does
        root = next(iter(roots_omega(GroupId.H2)))
        f = Fragment.from_rows(GroupId.H2, 1, [(0, 0, 0, 0), root.flat()])
        for read in (orbits, shells, fragment_svg):
            with pytest.raises(ValueError, match="closed under the reflections"):
                read(f)


class TestShellOrder:
    @pytest.mark.parametrize("group,n", [
        (GroupId.A2, 4), (GroupId.H2, 5), (GroupId.H3, 2), (GroupId.H4, 1),
    ])
    def test_equals_a_sort_by_scalar_norm_sq(self, group, n):
        f = generate(group, n)
        scalar = Counter(norm_sq(p) for p in points(f))
        distinct = sorted(scalar, key=cmp_to_key(lambda s, t: (s - t).sign()))
        norms, counts = shells(f)
        assert norms == distinct
        assert counts.dtype == np.int64
        assert counts.tolist() == [scalar[v] for v in distinct]


class TestShells:
    def test_q2_1_shells(self, q2):
        norms, counts = shells(q2[1])
        assert counts.tolist() == [1, 10]
        assert norms == [GoldenRational(0), GoldenRational(1)]

    def test_q2_0_single_shell(self, q2):
        assert shells(q2[0])[1].tolist() == [1]

    def test_outermost_shell_is_decagon_at_n(self, q2):
        for n in (1, 2, 3, 4):
            norms, counts = shells(q2[n])
            assert norms[-1] == GoldenRational(n * n)
            assert counts[-1] == 10
            members = [p for p in points(q2[n]) if norm_sq(p) == norms[-1]]
            dom = [p for p in members if p.is_dominant()]
            scaled = omega_from_alpha(
                AlphaVector.make(GroupId.H2, (TAU * n, TAU * n))
            )
            assert dom == [scaled]

    def test_shells_partition(self, q2):
        assert shells(q2[3])[1].sum() == q2[3].size

    def test_sorted_ascending(self, q2):
        norms = shells(q2[4])[0]
        for a, b in zip(norms, norms[1:]):
            assert (b - a).sign() > 0


class TestTenfold:
    @pytest.mark.parametrize("n", range(1, 5))
    def test_invariant(self, n, q2):
        assert check_tenfold(q2[n])

    def test_single_root_not_invariant(self):
        root = next(iter(roots_omega(GroupId.H2)))
        frag = generate(GroupId.H2, 0)
        broken = type(frag).from_rows(
            GroupId.H2, 0, np.array([p.flat() for p in (OmegaVector.zero(GroupId.H2), root)])
        )
        assert not check_tenfold(broken)

    def test_repeated_rows_keep_the_set(self, q2):
        # a row given twice leaves the point set, and so the answer, alone
        rows = q2[2].rows()
        assert check_tenfold(Fragment.from_rows(GroupId.H2, 2, np.concatenate([rows, rows[5:6]])))

    def test_rejects_h3(self):
        with pytest.raises(ValueError):
            check_tenfold(generate(GroupId.H3, 0))

    def test_rotation_past_the_key_range_is_not_invariant(self):
        # cyclotomic row (1775, 15764, -32547, -24217); its rotation by xi
        # has q.b = -41000, outside the 16-bit packed range
        row = np.array([[-20667, -25236, -24094, 15008]], dtype=np.int64)
        assert not check_tenfold(Fragment.from_rows(GroupId.H2, 0, row))

    @given(st.integers(0, 4), st.one_of(st.none(), st.lists(st.booleans(), min_size=1)))
    @settings(max_examples=60)
    def test_rows_agree_with_scalar_rotation(self, q2, n, keep):
        # the whole fragment (invariant) or a random subset (mostly not)
        coeffs = q2[n].rows()
        if keep is not None:
            coeffs = coeffs[np.resize(np.array(keep), len(coeffs))]
        f = Fragment.from_rows(GroupId.H2, n, coeffs)
        pts = set(cyclo_points(f))
        assert check_tenfold(f) == all(xi_pow(1) * p in pts for p in pts)


class TestCycloImage:
    def test_coordinates_round_trip_goldenint(self, q2):
        # every fragment point has Z[tau] coordinates by construction;
        # the cyclotomic image and back is the identity
        from oracles import omega_from_cyclo
        from quasih.rootsystem import cyclo_from_omega

        for p in points(q2[2]):
            assert omega_from_cyclo(cyclo_from_omega(p)) == p

    def test_level_sets_match_cyclo_sums(self, q2):
        # Q2(n) equals all sums of <= n powers of xi, computed cyclotomically
        sums = {xi_pow(0) * 0}
        for _ in range(3):
            sums |= {s + xi_pow(j) for s in sums for j in range(10)}
        assert {p for p in sums} == set(cyclo_points(generate(GroupId.H2, 3)))
