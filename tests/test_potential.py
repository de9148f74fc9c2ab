"""Tests for the potential-region analytics (paper Fig. 2, Lemmas 6.1-6.3)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.errors import GeometryError
from repro.geometry.points import uniform_points
from repro.geometry.potential import (
    nearest_higher_rank_distance,
    potential_angle,
    potential_area,
    potential_distance,
)
from repro.geometry.ranks import diagonal_ranks

unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


class TestPotentialArea:
    def test_origin_has_full_area(self):
        assert potential_area(np.array([[0.0, 0.0]]))[0] == pytest.approx(1.0)

    def test_far_corner_has_zero_area(self):
        assert potential_area(np.array([[1.0, 1.0]]))[0] == pytest.approx(0.0)

    def test_center(self):
        # s = 1: region above the main anti-diagonal has area 1/2.
        assert potential_area(np.array([[0.5, 0.5]]))[0] == pytest.approx(0.5)

    @given(unit, unit)
    @settings(max_examples=50)
    def test_matches_monte_carlo(self, x, y):
        """Closed form vs Monte Carlo integration of the region indicator."""
        rng = np.random.default_rng(0)
        samples = rng.random((20000, 2))
        frac = np.mean(samples.sum(axis=1) > x + y)
        area = potential_area(np.array([[x, y]]))[0]
        assert area == pytest.approx(frac, abs=0.02)

    def test_monotone_in_diagonal(self):
        """Area shrinks as the node moves up the diagonal."""
        ts = np.linspace(0, 1, 11)
        pts = np.stack([ts, ts], axis=1)
        a = potential_area(pts)
        assert (np.diff(a) < 0).all()


class TestPotentialDistance:
    def test_origin(self):
        # Farthest point of the whole square from (0,0) is (1,1).
        assert potential_distance(np.array([[0.0, 0.0]]))[0] == pytest.approx(np.sqrt(2))

    def test_reaches_far_corner_when_below_diagonal(self):
        d = potential_distance(np.array([[0.3, 0.2]]))[0]
        assert d == pytest.approx(np.hypot(0.7, 0.8))

    @given(unit, unit)
    @settings(max_examples=50)
    def test_dominates_region_samples(self, x, y):
        """No sampled point of the region is farther than L_u."""
        rng = np.random.default_rng(1)
        samples = rng.random((5000, 2))
        in_region = samples.sum(axis=1) > x + y
        if not in_region.any():
            return
        d = np.sqrt(((samples[in_region] - [x, y]) ** 2).sum(axis=1))
        L = potential_distance(np.array([[x, y]]))[0]
        assert d.max() <= L + 1e-9


class TestPotentialAngle:
    @given(st.lists(st.tuples(unit, unit), min_size=1, max_size=40))
    # One ulp off the corner: x + y rounds to 2.0 there.
    @example([(1.0, 0.9999999999999999)])
    @example([(0.9999999999999999, 1.0)])
    def test_lemma_6_1(self, pts):
        """alpha_u >= 1/2 for every node except a node exactly at (1,1)."""
        arr = np.array(pts)
        alpha = potential_angle(arr)
        at_corner = (arr[:, 0] == 1.0) & (arr[:, 1] == 1.0)
        assert (alpha[~at_corner] >= 0.5 - 1e-9).all()

    def test_lemma_6_1_on_uniform(self):
        alpha = potential_angle(uniform_points(2000, seed=0))
        assert alpha.min() >= 0.5

    def test_angle_at_most_two(self):
        """alpha = 2A/L^2 <= 2 since A <= L^2 ... in fact A <= pi L^2 / 4;
        on the unit square alpha never exceeds 2."""
        alpha = potential_angle(uniform_points(1000, seed=1))
        assert alpha.max() <= 2.0 + 1e-9

    def test_corner_node_zero(self):
        assert potential_angle(np.array([[1.0, 1.0]]))[0] == 0.0

    def test_rejects_outside_square(self):
        with pytest.raises(GeometryError):
            potential_angle(np.array([[1.2, 0.0]]))


class TestNearestHigherRank:
    def test_brute_force_agreement(self):
        pts = uniform_points(80, seed=3)
        ranks = diagonal_ranks(pts)
        d = nearest_higher_rank_distance(pts, ranks)
        for u in range(80):
            higher = np.nonzero(ranks > ranks[u])[0]
            if len(higher) == 0:
                assert np.isinf(d[u])
            else:
                dd = np.sqrt(((pts[higher] - pts[u]) ** 2).sum(axis=1))
                assert d[u] == pytest.approx(dd.min())

    def test_exactly_one_infinite(self):
        d = nearest_higher_rank_distance(uniform_points(120, seed=4))
        assert np.isinf(d).sum() == 1

    def test_lemma_6_2_expectation(self):
        """E[d_u^2] <= 2/(n alpha_u) <= 4/n on average (Thm 6.1 arithmetic)."""
        n = 3000
        pts = uniform_points(n, seed=5)
        d = nearest_higher_rank_distance(pts)
        finite = np.isfinite(d)
        assert np.sum(d[finite] ** 2) <= 4.0

    def test_lemma_6_3_whp_bound(self):
        """All d_u <= c sqrt(log n / n) with a modest c on a typical instance."""
        n = 2000
        pts = uniform_points(n, seed=6)
        d = nearest_higher_rank_distance(pts)
        finite = np.isfinite(d)
        assert d[finite].max() <= 3.0 * np.sqrt(np.log(n) / n)

    def test_small_inputs(self):
        assert nearest_higher_rank_distance(np.zeros((0, 2))).shape == (0,)
        one = nearest_higher_rank_distance(np.array([[0.5, 0.5]]))
        assert np.isinf(one[0])

    def test_ranks_length_mismatch(self):
        with pytest.raises(GeometryError):
            nearest_higher_rank_distance(uniform_points(5), np.arange(4))

    def test_expanding_query_small_initial_k(self):
        """Force several doubling rounds to cover the expansion path."""
        pts = uniform_points(300, seed=7)
        a = nearest_higher_rank_distance(pts, initial_k=2)
        b = nearest_higher_rank_distance(pts, initial_k=300)
        finite = np.isfinite(a)
        assert np.allclose(a[finite], b[finite])
