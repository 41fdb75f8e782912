import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quasih.golden import GoldenInt, GoldenRational, TAU, xi_pow
from quasih.rootsystem import (
    AlphaVector,
    GroupId,
    OmegaVector,
    norm_sq,
    omega_from_alpha,
    roots_omega,
)
from quasih.fragment import (
    Fragment,
    ResourceLimitError,
    check_tenfold,
    generate,
    generate_rootsum,
    orbits,
    shells,
    to_dominant,
)


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
        assert q2[1].point_set() == expected

    def test_contains_origin(self, q2):
        for f in q2.values():
            assert OmegaVector.zero(GroupId.H2) in f.point_set()

    def test_strict_nesting(self, q2):
        for n in range(1, 5):
            assert q2[n - 1].point_set() < q2[n].point_set()

    def test_canonical_order(self, q2):
        flats = [p.flat() for p in q2[3].points]
        assert flats == sorted(flats)

    def test_closed_under_reflections(self, q2):
        from quasih.affine import operators

        ops = operators(GroupId.H2)
        pts = q2[2].point_set()
        for r in ops.reflections:
            assert {r.apply(p) for p in pts} == pts

    def test_points_within_distance_n(self, q2):
        for n, f in q2.items():
            bound = GoldenRational(n * n)
            for p in f.points:
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


class TestRootSumOracle:
    @pytest.mark.parametrize("group,nmax", [
        (GroupId.H2, 4), (GroupId.H3, 3), (GroupId.H4, 2),
    ])
    def test_equals_word_bfs(self, group, nmax):
        for n in range(nmax + 1):
            assert generate(group, n).points == generate_rootsum(group, n).points

    @pytest.mark.parametrize("group,nmax", [
        (GroupId.H2, 10), (GroupId.H3, 5), (GroupId.H4, 4),
    ])
    def test_coeffs_equal_word_bfs_at_larger_sizes(self, group, nmax):
        for n in range(nmax + 1):
            assert np.array_equal(generate(group, n).coeffs, generate_rootsum(group, n).coeffs)

    def test_h3_n1_count(self):
        assert generate_rootsum(GroupId.H3, 1).size == 31

    def test_h4_n1_count(self):
        assert generate_rootsum(GroupId.H4, 1).size == 121

    def test_method_tag(self):
        assert generate(GroupId.H2, 1).method == "word_bfs"
        assert generate_rootsum(GroupId.H2, 1).method == "root_sum"


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
        from quasih.fragment import orbit_of

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
        recs = orbits(q2[2])
        sizes = sorted(o.size for o in recs)
        assert sizes == [1, 5, 5, 5, 5, 10, 10, 10, 10]
        assert sum(sizes) == 61

    def test_each_orbit_has_one_dominant_member(self, q2):
        for rec in orbits(q2[3]):
            dominants = [p for p in rec.members if p.is_dominant()]
            assert dominants == [rec.dominant]

    def test_h2_orbit_size_rule(self, q2):
        for rec in orbits(q2[3]):
            a, b = rec.dominant.coords
            if a.sign() > 0 and b.sign() > 0:
                assert rec.size == 10
            elif a.is_zero() and b.is_zero():
                assert rec.size == 1
            else:
                assert rec.size == 5

    def test_root_orbit_sizes(self):
        from quasih.fragment import orbit_of
        from quasih.rootsystem import highest_root

        assert len(orbit_of(highest_root(GroupId.H3))) == 30
        assert len(orbit_of(highest_root(GroupId.H4))) == 120

    def test_orbit_sizes_divide_group_order(self, q2):
        order = {GroupId.H2: 10, GroupId.H3: 120, GroupId.H4: 14400}
        for rec in orbits(q2[2]):
            assert order[GroupId.H2] % rec.size == 0


class TestShells:
    def test_q2_1_shells(self, q2):
        sh = shells(q2[1])
        assert [s.size for s in sh] == [1, 10]
        assert sh[0].norm == GoldenRational(0)
        assert sh[1].norm == GoldenRational(1)

    def test_q2_0_single_shell(self, q2):
        assert [s.size for s in shells(q2[0])] == [1]

    def test_outermost_shell_is_decagon_at_n(self, q2):
        for n in (1, 2, 3, 4):
            outer = shells(q2[n])[-1]
            assert outer.norm == GoldenRational(n * n)
            assert outer.size == 10
            dom = [p for p in outer.members if p.is_dominant()]
            scaled = omega_from_alpha(
                AlphaVector.make(GroupId.H2, (TAU * n, TAU * n))
            )
            assert dom == [scaled]

    def test_shells_partition(self, q2):
        sh = shells(q2[3])
        assert sum(s.size for s in sh) == q2[3].size

    def test_sorted_ascending(self, q2):
        norms = [s.norm for s in shells(q2[4])]
        for a, b in zip(norms, norms[1:]):
            assert (b - a).sign() > 0


class TestTenfold:
    @pytest.mark.parametrize("n", range(1, 5))
    def test_invariant(self, n, q2):
        assert check_tenfold(q2[n])

    def test_single_root_not_invariant(self):
        root = next(iter(roots_omega(GroupId.H2)))
        frag = generate(GroupId.H2, 0)
        broken = type(frag)(
            GroupId.H2, 0, np.array([p.flat() for p in (OmegaVector.zero(GroupId.H2), root)]),
            "word_bfs",
        )
        assert not check_tenfold(broken)

    def test_rejects_h3(self):
        with pytest.raises(ValueError):
            check_tenfold(generate(GroupId.H3, 0))

    @given(st.integers(0, 4), st.one_of(st.none(), st.lists(st.booleans(), min_size=1)))
    @settings(max_examples=60)
    def test_rows_agree_with_scalar_rotation(self, q2, n, keep):
        # the whole fragment (invariant) or a random subset (mostly not)
        coeffs = q2[n].coeffs
        if keep is not None:
            coeffs = coeffs[np.resize(np.array(keep), len(coeffs))]
        f = Fragment(GroupId.H2, n, coeffs, "test")
        pts = set(f.cyclo_points())
        assert check_tenfold(f) == all(xi_pow(1) * p in pts for p in pts)


class TestCycloImage:
    def test_coordinates_round_trip_goldenint(self, q2):
        # every fragment point has Z[tau] coordinates by construction;
        # the cyclotomic image and back is the identity
        from quasih.rootsystem import cyclo_from_omega, omega_from_cyclo

        for p in q2[2].points:
            assert omega_from_cyclo(cyclo_from_omega(p)) == p

    def test_level_sets_match_cyclo_sums(self, q2):
        # Q2(n) equals all sums of <= n powers of xi, computed cyclotomically
        sums = {xi_pow(0) * 0}
        for _ in range(3):
            sums |= {s + xi_pow(j) for s in sums for j in range(10)}
        assert {p for p in sums} == set(generate(GroupId.H2, 3).cyclo_points())
