"""Numerical verification of the paper's numbered Facts (Sect. 2).

Each test constructs the situation a Fact describes and checks the
conclusion against the implemented channel / probability machinery —
tying the codebase to the paper's analysis lemma by lemma.
"""

import math

import numpy as np
import pytest

from repro.geometry.metric import pairwise_distances
from repro.sinr.channel import UniformPower
from repro.sinr.params import SINRParameters
from repro.sinr.reception import NO_SENDER, resolve_reception

PARAMS = SINRParameters.default()  # alpha=3, beta=1, N=1, P=1, r=1, eps=0.3


def _gains(coords):
    coords = np.asarray(coords, dtype=float)
    return UniformPower().gain(pairwise_distances(coords), coords, PARAMS)


class TestFact1:
    """A transmission decodable everywhere within 1 - eps/2 of the sender
    reaches every neighbour of every station in B(sender, eps/2)."""

    def test_coverage_geometry(self):
        eps = PARAMS.eps
        # Station w within eps/2 of sender v; u a neighbour of w
        # (dist(w, u) <= 1 - eps). Then dist(v, u) <= 1 - eps/2.
        rng = np.random.default_rng(0)
        for _ in range(200):
            v = np.zeros(2)
            w = rng.normal(size=2)
            w = w / np.linalg.norm(w) * rng.uniform(0, eps / 2)
            direction = rng.normal(size=2)
            u = w + direction / np.linalg.norm(direction) * rng.uniform(
                0, 1 - eps
            )
            assert np.linalg.norm(u - v) <= 1 - eps / 2 + 1e-12

    def test_lone_transmitter_covers_that_radius(self):
        # With no interference, a transmitter is decodable at 1 - eps/2.
        coords = [[0.0, 0.0], [1.0 - PARAMS.eps / 2, 0.0]]
        heard = resolve_reception(
            _gains(coords), np.array([0]), PARAMS.noise, PARAMS.beta
        )
        assert heard[1] == 0


class TestFact2:
    """If interference at u is at most N/(2 x^alpha), u hears a
    transmitter at distance x (for x <= 2^(-1/alpha))."""

    @pytest.mark.parametrize("x", [0.3, 0.5, 0.7, 2 ** (-1 / 3.0)])
    def test_reception_under_interference_budget(self, x):
        # Sender at distance x from listener; one interferer placed so
        # its contribution is just under N / (2 x^alpha).
        budget = PARAMS.noise / (2 * x ** PARAMS.alpha)
        d_interferer = (PARAMS.power / (0.95 * budget)) ** (1 / PARAMS.alpha)
        coords = [
            [0.0, 0.0],                  # listener
            [x, 0.0],                    # sender
            [-d_interferer, 0.0],        # interferer
        ]
        heard = resolve_reception(
            _gains(coords), np.array([1, 2]), PARAMS.noise, PARAMS.beta
        )
        assert heard[0] == 1

    def test_fails_beyond_the_fact_regime(self):
        # At interference ~4x the budget, the intended sender at distance
        # x is no longer decodable (the interferer may capture instead).
        x = 0.7
        budget = PARAMS.noise / (2 * x ** PARAMS.alpha)
        d_interferer = (PARAMS.power / (4 * budget)) ** (1 / PARAMS.alpha)
        coords = [[0.0, 0.0], [x, 0.0], [-d_interferer, 0.0]]
        heard = resolve_reception(
            _gains(coords), np.array([1, 2]), PARAMS.noise, PARAMS.beta
        )
        assert heard[0] != 1


class TestFact3:
    """If interference at u is at most N*alpha*x, u hears a transmitter
    at distance 1 - x."""

    @pytest.mark.parametrize("x", [0.05, 0.1, 0.2, 0.3])
    def test_reception_near_full_range(self, x):
        budget = PARAMS.noise * PARAMS.alpha * x
        d_interferer = (PARAMS.power / (0.95 * budget)) ** (1 / PARAMS.alpha)
        coords = [[0.0, 0.0], [1.0 - x, 0.0], [-d_interferer, 0.0]]
        heard = resolve_reception(
            _gains(coords), np.array([1, 2]), PARAMS.noise, PARAMS.beta
        )
        assert heard[0] == 1

    def test_bernoulli_inequality_direction(self):
        # The proof uses (1+x)^alpha >= 1 + alpha*x.
        for x in np.linspace(0, 1, 50):
            assert (1 + x) ** PARAMS.alpha >= 1 + PARAMS.alpha * x - 1e-12


class TestFact4:
    """If sum of p_v over A is s <= 1/2, P(exactly one of A transmits)
    is between s/2 and s."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_monte_carlo_bounds(self, seed):
        rng = np.random.default_rng(seed)
        k = rng.integers(2, 12)
        probs = rng.uniform(0, 0.08, size=k)
        probs *= min(1.0, 0.5 / probs.sum())
        s = probs.sum()
        trials = 200000
        draws = rng.random((trials, k)) < probs
        exactly_one = (draws.sum(axis=1) == 1).mean()
        margin = 4 * math.sqrt(0.25 / trials)
        assert exactly_one >= s / 2 - margin
        assert exactly_one <= s + margin

    def test_exact_formula_two_stations(self):
        p, q = 0.2, 0.3
        exactly_one = p * (1 - q) + q * (1 - p)
        s = p + q
        assert s / 2 <= exactly_one <= s


class TestFact5:
    """With all p_v <= 1/2, P(nobody transmits) >= (1/4)^(sum p_v)."""

    @pytest.mark.parametrize("seed", [3, 4])
    def test_monte_carlo_bound(self, seed):
        rng = np.random.default_rng(seed)
        k = rng.integers(2, 10)
        probs = rng.uniform(0, 0.5, size=k)
        trials = 100000
        draws = rng.random((trials, k)) < probs
        none = (draws.sum(axis=1) == 0).mean()
        bound = 0.25 ** probs.sum()
        margin = 4 * math.sqrt(0.25 / trials)
        assert none >= bound - margin

    def test_analytic_inequality(self):
        # (1 - p) >= (1/4)^p for p in [0, 1/2].
        for p in np.linspace(0, 0.5, 100):
            assert (1 - p) >= 0.25 ** p - 1e-12


class TestFact6:
    """Bounded density (mass <= C per unit ball) implies effective
    communication: a lone transmitter in B(v, 2/3) is heard w.p. >= 1/2."""

    def test_effective_communication_empirically(self):
        rng = np.random.default_rng(7)
        # Dense-ish deployment; assign probabilities with per-unit-ball
        # mass ~0.3 (the calibrated C1 regime).
        n = 80
        coords = rng.uniform(0, 4, size=(n, 2))
        coords[0] = [2.0, 2.0]          # listener v
        coords[1] = [2.4, 2.0]          # sender w at distance 0.4 < 2/3
        dist = pairwise_distances(coords)
        gains = UniformPower().gain(dist, coords, PARAMS)
        ball_sizes = (dist <= 1.0).sum(axis=1)
        probs = np.full(n, 0.3) / ball_sizes.max()
        probs[0] = 0.0                  # v listens
        probs[1] = 0.0                  # w's transmission is conditioned on
        successes = 0
        trials = 3000
        for _ in range(trials):
            others = np.flatnonzero(rng.random(n) < probs)
            tx = np.concatenate([[1], others])
            heard = resolve_reception(gains, tx, PARAMS.noise, PARAMS.beta)
            if heard[0] == 1:
                successes += 1
        assert successes / trials >= 0.5
