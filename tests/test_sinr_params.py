"""Tests for SINR parameter algebra."""

import math

import pytest

from repro.errors import ProtocolError
from repro.sinr.params import ParameterBounds, SINRParameters


class TestSINRParameters:
    def test_default_is_normalized(self):
        p = SINRParameters.default()
        assert p.is_normalized
        assert p.broadcast_range == pytest.approx(1.0)

    def test_default_power_is_noise_times_beta(self):
        p = SINRParameters.default(beta=2.0, noise=0.5)
        assert p.power == pytest.approx(1.0)
        assert p.broadcast_range == pytest.approx(1.0)

    def test_comm_radius(self):
        p = SINRParameters.default(eps=0.3)
        assert p.comm_radius == pytest.approx(0.7)

    def test_broadcast_range_formula(self):
        p = SINRParameters(alpha=2.0, beta=1.0, noise=1.0, power=4.0)
        assert p.broadcast_range == pytest.approx(2.0)
        assert not p.is_normalized

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"alpha": 0.0},
            {"alpha": -1.0},
            {"beta": 0.5},
            {"noise": 0.0},
            {"power": 0.0},
            {"eps": 0.0},
            {"eps": 1.0},
        ],
    )
    def test_validation(self, kwargs):
        base = dict(alpha=3.0, beta=1.0, noise=1.0, power=3.0, eps=0.3)
        base.update(kwargs)
        with pytest.raises(ProtocolError):
            SINRParameters(**base)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "field", ["alpha", "beta", "noise", "power", "eps"]
    )
    def test_non_finite_rejected(self, field, bad):
        # NaN fails every comparison, so a check written as "x <= 0"
        # lets it through; inf would make gains or ranges infinite.
        base = dict(alpha=3.0, beta=1.0, noise=1.0, power=3.0, eps=0.3)
        base[field] = bad
        with pytest.raises(ProtocolError):
            SINRParameters(**base)

    def test_with_eps(self):
        p = SINRParameters.default(eps=0.3)
        q = p.with_eps(0.1)
        assert q.eps == 0.1
        assert q.alpha == p.alpha
        assert p.eps == 0.3  # frozen original untouched

    def test_min_gap_for_range_at_full_range(self):
        p = SINRParameters.default()
        # At the full range r=1 there is no interference budget left.
        assert p.min_gap_for_range(1.0) == pytest.approx(0.0)

    def test_min_gap_grows_as_range_shrinks(self):
        p = SINRParameters.default()
        assert p.min_gap_for_range(0.5) > p.min_gap_for_range(0.9) > 0

    def test_min_gap_rejects_bad_range(self):
        with pytest.raises(ProtocolError):
            SINRParameters.default().min_gap_for_range(0.0)

    def test_frozen(self):
        p = SINRParameters.default()
        with pytest.raises(AttributeError):
            p.alpha = 4.0


class TestParameterBounds:
    def test_exact_bounds_contain_params(self):
        p = SINRParameters.default()
        b = ParameterBounds.exact(p)
        assert b.contains(p)

    def test_contains_rejects_outside(self):
        p = SINRParameters.default(alpha=3.0)
        b = ParameterBounds.exact(p)
        assert not b.contains(SINRParameters.default(alpha=4.0))

    def test_conservative_uses_worst_case(self):
        b = ParameterBounds(
            alpha_min=2.5, alpha_max=4.0,
            beta_min=1.0, beta_max=2.0,
            noise_min=0.5, noise_max=1.5,
        )
        safe = b.conservative()
        assert safe.alpha == 2.5  # smallest alpha = worst interference
        assert safe.beta == 2.0
        assert safe.noise == 1.5
        assert safe.power == pytest.approx(3.0)

    def test_conservative_range_at_least_one(self):
        b = ParameterBounds(
            alpha_min=2.5, alpha_max=4.0,
            beta_min=1.0, beta_max=2.0,
            noise_min=0.5, noise_max=1.5,
        )
        safe = b.conservative()
        assert safe.broadcast_range >= 1.0 - 1e-12

    def test_inverted_bounds_rejected(self):
        with pytest.raises(ProtocolError):
            ParameterBounds(
                alpha_min=4.0, alpha_max=3.0,
                beta_min=1.0, beta_max=1.0,
                noise_min=1.0, noise_max=1.0,
            )

    def test_beta_min_below_one_rejected(self):
        with pytest.raises(ProtocolError):
            ParameterBounds(
                alpha_min=3.0, alpha_max=3.0,
                beta_min=0.5, beta_max=1.0,
                noise_min=1.0, noise_max=1.0,
            )

    def test_nonpositive_bound_rejected(self):
        with pytest.raises(ProtocolError):
            ParameterBounds(
                alpha_min=0.0, alpha_max=3.0,
                beta_min=1.0, beta_max=1.0,
                noise_min=1.0, noise_max=1.0,
            )

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize(
        "field",
        [
            "alpha_min", "alpha_max", "beta_min", "beta_max",
            "noise_min", "noise_max",
        ],
    )
    def test_non_finite_bound_rejected(self, field, bad):
        bounds = dict(
            alpha_min=3.0, alpha_max=3.0,
            beta_min=1.0, beta_max=1.0,
            noise_min=1.0, noise_max=1.0,
        )
        bounds[field] = bad
        with pytest.raises(ProtocolError):
            ParameterBounds(**bounds)
