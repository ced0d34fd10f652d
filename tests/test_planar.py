"""Planar extension: projection reductions and doubled constants."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfbounds.censored import MassSpec, RegionPartition, bound_three_region, bound_two_region
from cfbounds.classic import multivariate_dkw_bound
from cfbounds.planar import (
    Boundary2D,
    Gaussian2D,
    adjusted_cdf_empirical,
    bound_2d_three_region,
    bound_2d_two_region,
    partition_2d,
)
from cfbounds.rng import SeededRng
from cfbounds.stats import EmpiricalCdf

CLOUD = Gaussian2D(mean=(7.0, 7.0), cov=((1.0, 0.0), (0.0, 1.0)))


def _points(seed=21, count=100):
    return CLOUD.sample(count, SeededRng(seed))


class TestBoundary:
    def test_zero_weights_rejected(self):
        with pytest.raises(ValueError):
            Boundary2D(w=(0.0, 0.0), b=1.0)

    def test_lb_ordering(self):
        with pytest.raises(ValueError):
            Boundary2D(w=(1.0, 1.0), b=10.0, b_lb=10.0)

    @pytest.mark.parametrize("kwargs", [
        dict(w=(1.0, 1.0), b=np.nan),
        dict(w=(1.0, 1.0), b=np.inf),
        dict(w=(np.inf, 1.0), b=0.0),
        dict(w=(1.0, np.nan), b=0.0),
        dict(w=(1.0, 1.0), b=1.0, b_lb=-np.inf),
    ])
    def test_non_finite_line_rejected(self, kwargs):
        with pytest.raises(ValueError, match="finite"):
            Boundary2D(**kwargs)

    def test_projection(self):
        boundary = Boundary2D(w=(2.0, -1.0), b=0.0)
        assert np.allclose(boundary.project([[1.0, 1.0], [3.0, 2.0]]), [1.0, 4.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e308])
    def test_non_finite_projection_rejected(self, bad):
        # a NaN point used to count as disclosed, and a fraction of 0.5
        # came back for it; 1e308 overflows w.x to inf
        boundary = Boundary2D(w=(2.0, 1.0), b=14.0)
        pts = [[bad, 7.0], [7.0, 7.0]]
        for call in (boundary.project, lambda p: partition_2d(p, boundary),
                     lambda p: adjusted_cdf_empirical(p, boundary, 14.0)):
            with pytest.raises(ValueError, match="finite"):
                call(pts)


class TestPartition2D:
    def test_axis_aligned_reduces_to_1d(self):
        pts = _points()
        boundary = Boundary2D(w=(1.0, 0.0), b=7.0)
        part = partition_2d(pts, boundary)
        assert part.m == int(np.sum(pts[:, 0] < 7.0))

    def test_all_one_side(self):
        pts = np.array([[0.0, 0.0], [1.0, 1.0]])
        assert partition_2d(pts, Boundary2D(w=(1.0, 1.0), b=100.0)).m == 2
        assert partition_2d(pts, Boundary2D(w=(1.0, 1.0), b=-100.0)).m == 0

    def test_sign_count_oracle(self):
        # oracle: direct sign enumeration of w.x - b
        pts = _points(seed=5)
        boundary = Boundary2D(w=(1.0, 1.0), b=14.0)
        part = partition_2d(pts, boundary)
        want = sum(1 for p in pts if p[0] + p[1] - 14.0 < 0)
        assert part.m == want

    def test_on_boundary_counts_as_disclosed(self):
        pts = np.array([[7.0, 7.0], [0.0, 0.0]])
        part = partition_2d(pts, Boundary2D(w=(1.0, 1.0), b=14.0))
        assert part.m == 1

    def test_exploration_line(self):
        pts = _points(seed=9)
        boundary = Boundary2D(w=(1.0, 1.0), b=14.0, b_lb=12.0)
        part = partition_2d(pts, boundary)
        proj = pts @ np.array([1.0, 1.0])
        assert part.l == int(np.sum(proj < 12.0))
        assert part.m == int(np.sum(proj < 14.0))


class TestAdjustedDistribution:
    def test_limits(self):
        pts = _points()
        boundary = Boundary2D(w=(1.0, 1.0), b=14.0)
        assert adjusted_cdf_empirical(pts, boundary, -1e9) == 0.0
        assert adjusted_cdf_empirical(pts, boundary, 1e9) == 1.0

    def test_projection_reduction(self):
        pts = _points(seed=3)
        boundary = Boundary2D(w=(1.0, 1.0), b=14.0)
        ecdf = EmpiricalCdf(pts @ np.array([1.0, 1.0]))
        for b_prime in (12.0, 13.5, 14.0, 15.2):
            assert adjusted_cdf_empirical(pts, boundary, b_prime) == pytest.approx(
                ecdf.cdf(b_prime), abs=1e-15)

    def test_theoretical_projection_gaussian(self):
        proj = CLOUD.projection((1.0, 1.0))
        assert proj.mean == pytest.approx(14.0)
        assert proj.stddev == pytest.approx(np.sqrt(2.0))
        assert proj.cdf(14.0) == pytest.approx(0.5, abs=1e-14)

    def test_at_decision_intercept_equals_mass_fraction(self):
        pts = _points(seed=17)
        boundary = Boundary2D(w=(1.0, 1.0), b=14.0)
        part = partition_2d(pts, boundary)
        # <= at the intercept vs < in the partition: no point sits exactly
        # on the line for a continuous cloud
        assert adjusted_cdf_empirical(pts, boundary, 14.0) == pytest.approx(
            part.m / part.n)


class TestBounds2D:
    def test_reduction_to_multivariate_constant(self):
        part = RegionPartition(n=50, m=0, k=10)
        got = bound_2d_two_region(part, 0.0, 0.1)
        assert got.raw == pytest.approx(multivariate_dkw_bound(60, 0.1, 2).raw, rel=1e-14, abs=0.0)

    @settings(max_examples=100)
    @given(st.integers(4, 300), st.data())
    def test_double_the_1d_value(self, n, data):
        m = data.draw(st.integers(1, n - 1))
        k = data.draw(st.integers(0, 200))
        alpha = data.draw(st.floats(0.05, 0.95))
        eta = data.draw(st.floats(0.05, 0.9))
        part = RegionPartition(n=n, m=m, k=k)
        two_d = bound_2d_two_region(part, alpha, eta)
        one_d = bound_two_region(part, MassSpec.theoretical(alpha), eta)
        if not one_d.trivial:
            assert two_d.raw == pytest.approx(2.0 * one_d.raw, rel=1e-12, abs=0.0)

    def test_three_region_lb_collapse(self):
        # exploring right up to the boundary reduces to the two-region form
        part3 = RegionPartition(n=60, m=30, l=30, k=12)
        part2 = RegionPartition(n=60, m=30, k=12)
        three = bound_2d_three_region(part3, 0.5, 0.5, 0.4, 0.2)
        two = bound_2d_two_region(part2, 0.5, 0.2)
        assert three.raw == pytest.approx(two.raw, abs=1e-12)

    def test_three_region_pure_exploration(self):
        part = RegionPartition(n=60, m=30, l=0, k=12, k1=6)
        got = bound_2d_three_region(part, 0.5, 0.0, 0.5, 0.3)
        ref = bound_three_region(part, MassSpec.theoretical(0.5, 0.0), 0.5, 0.3)
        assert got.raw == pytest.approx(2.0 * ref.raw, rel=1e-12, abs=0.0)

    def test_2d_three_region_against_1d_double(self):
        part = RegionPartition(n=100, m=60, l=20, k=30, k1=8)
        got = bound_2d_three_region(part, 0.6, 0.2, 0.5, 0.25)
        ref = bound_three_region(part, MassSpec.theoretical(0.6, 0.2), 0.5, 0.25)
        assert got.raw == pytest.approx(2.0 * ref.raw, rel=1e-12, abs=0.0)


@settings(max_examples=50)
@given(st.integers(0, 10_000), st.floats(-2.0, 2.0), st.floats(-2.0, 2.0))
def test_partition_projection_equivalence(seed, w1, w2):
    if abs(w1) < 1e-6 and abs(w2) < 1e-6:
        return
    pts = _points(seed=seed, count=40)
    proj = pts @ np.array([w1, w2])
    b = float(np.median(proj))  # keep both sides populated usually
    boundary = Boundary2D(w=(w1, w2), b=b)
    part = partition_2d(pts, boundary)
    assert part.m == int(np.sum(proj < b))

