"""Tests for the vectorized fastsim implementations."""

import numpy as np
import pytest

from repro.core.coloring import FINAL_COLOR_LEVEL, NOT_PARTICIPATING
from repro.core.constants import ProtocolConstants
from repro.core.outcome import NEVER_INFORMED
from repro.errors import ProtocolError
from repro.fastsim import (
    fast_coloring_batch,
    fast_decay_broadcast_batch,
    fast_local_broadcast_global_batch,
    fast_nospont_broadcast_batch,
    fast_spont_broadcast_batch,
    fast_uniform_broadcast_batch,
)
from repro.fastsim import engine
from repro.fastsim.engine import spawn_rngs
from repro.network.network import Network


@pytest.fixture(scope="module")
def constants():
    return ProtocolConstants.practical()


class TestFastColoring:
    def test_colors_assigned(self, small_square, constants, rng):
        result = fast_coloring_batch(
            small_square, constants, [rng]
        ).replication(0)
        assert np.all(result.participants)
        assert not np.any(np.isnan(result.colors))
        assert result.rounds == constants.coloring_total_rounds(
            small_square.size
        )

    def test_colors_are_ladder_values(self, small_square, constants, rng):
        result = fast_coloring_batch(
            small_square, constants, [rng]
        ).replication(0)
        n = small_square.size
        legal = {
            constants.color_of_level(lv, n)
            for lv in range(constants.num_levels(n))
        } | {constants.survivor_color}
        for c in result.distinct_colors():
            assert any(abs(c - v) < 1e-12 for v in legal)

    def test_participants_mask(self, small_square, constants, rng):
        mask = np.zeros(small_square.size, dtype=bool)
        mask[:5] = True
        result = fast_coloring_batch(
            small_square, constants, [rng], participants=mask
        ).replication(0)
        assert np.array_equal(result.participants, mask)
        assert np.all(result.quit_levels[~mask] == NOT_PARTICIPATING)

    def test_empty_participants_rejected(self, small_square, constants, rng):
        with pytest.raises(ProtocolError):
            fast_coloring_batch(
                small_square, constants, [rng],
                participants=np.zeros(small_square.size, dtype=bool),
            )

    def test_single_station_survives(self, constants, rng):
        net = Network(np.array([[0.0, 0.0]]))
        result = fast_coloring_batch(net, constants, [rng]).replication(0)
        assert result.quit_levels[0] == FINAL_COLOR_LEVEL

    def test_informed_tracking_requires_rounds(
        self, small_square, constants, rng
    ):
        informed = np.zeros((1, small_square.size), dtype=bool)
        with pytest.raises(ProtocolError):
            fast_coloring_batch(
                small_square, constants, [rng], informed=informed
            )

    def test_informed_spreads_from_source(self, small_square, constants, rng):
        n = small_square.size
        informed = np.zeros((1, n), dtype=bool)
        informed[0, 0] = True
        informed_round = np.full((1, n), NEVER_INFORMED)
        informed_round[0, 0] = 0
        fast_coloring_batch(
            small_square, constants, [rng],
            informed=informed, informed_round=informed_round,
        )
        # The source transmits during coloring, so someone hears it.
        assert informed.sum() > 1
        newly = informed & (informed_round >= 0)
        assert np.array_equal(newly, informed)

    def test_reproducible(self, small_square, constants):
        a = fast_coloring_batch(
            small_square, constants, [np.random.default_rng(4)]
        )
        b = fast_coloring_batch(
            small_square, constants, [np.random.default_rng(4)]
        )
        assert np.array_equal(a.quit_levels, b.quit_levels)

    def test_one_resolver_call_per_test(
        self, small_square, constants, monkeypatch
    ):
        # Each DensityTest and each Playoff is one block of rounds, so a
        # static run makes levels x repeats x 2 resolver calls — while a
        # station stays in the ladder to the end, no block is skipped.
        calls = []
        resolve = engine.resolve_reception_batch

        def counted(gain, tx_mask, noise, beta):
            calls.append(np.shape(tx_mask))
            return resolve(gain, tx_mask, noise, beta)

        monkeypatch.setattr(engine, "resolve_reception_batch", counted)
        batch = fast_coloring_batch(
            small_square, constants, spawn_rngs(3, 8)
        )
        assert (batch.quit_levels == FINAL_COLOR_LEVEL).any()
        schedule = batch.schedule
        assert len(calls) == schedule.levels * constants.repeats * 2
        lengths = {shape[0] for shape in calls}
        assert lengths == {schedule.density_len, schedule.playoff_len}


class TestFastBroadcasts:
    def test_spont_completes(self, small_square, constants, rng):
        out = fast_spont_broadcast_batch(small_square, 0, constants, [rng])[0]
        assert out.success
        assert out.completion_round >= 0
        assert out.informed_round[0] == 0

    def test_nospont_completes(self, small_square, constants, rng):
        out = fast_nospont_broadcast_batch(
            small_square, 0, constants, [rng]
        )[0]
        assert out.success
        assert out.extras["phases_used"] >= 1

    def test_nospont_phase_budget(self, small_chain, constants, rng):
        out = fast_nospont_broadcast_batch(
            small_chain, 0, constants, [rng], max_phases=1
        )[0]
        # One phase may or may not finish a 11-hop chain; bounded rounds.
        assert out.total_rounds <= constants.phase_rounds(small_chain.size)

    def test_spont_budget_failure(self, small_chain, constants, rng):
        out = fast_spont_broadcast_batch(
            small_chain, 0, constants, [rng], round_budget=0
        )[0]
        # With zero dissemination budget only coloring-stage spread happens.
        assert out.total_rounds <= small_chain.size * 1000
        if not out.success:
            assert out.completion_round == NEVER_INFORMED

    def test_uniform_completes(self, small_chain, rng):
        out = fast_uniform_broadcast_batch(small_chain, 0, [rng], q=0.5)[0]
        assert out.success

    def test_uniform_invalid_q(self, small_chain, rng):
        with pytest.raises(ProtocolError):
            fast_uniform_broadcast_batch(small_chain, 0, [rng], q=2.0)

    def test_decay_completes(self, small_chain, rng):
        out = fast_decay_broadcast_batch(small_chain, 0, [rng])[0]
        assert out.success

    def test_local_completes(self, small_square, rng):
        out = fast_local_broadcast_global_batch(small_square, 0, [rng])[0]
        assert out.success

    def test_local_phase_length_is_the_shared_formula(self, small_square):
        from repro.baselines.local_broadcast import (
            phase_length as reference_phase_length,
        )
        from repro.core.constants import phase_length

        out = fast_local_broadcast_global_batch(
            small_square, 0, spawn_rngs(2, 5)
        )
        delta = max(1, small_square.max_degree)
        want = phase_length(small_square.size, delta)
        assert reference_phase_length is phase_length
        assert [o.extras["phase_length"] for o in out] == [want, want]
        assert [o.extras["max_degree"] for o in out] == [delta, delta]

    def test_bad_source(self, small_chain, constants, rng):
        # A bool source would index every column: all stations informed
        # at round 0.
        for source in (50, True, np.True_, 1.0, -1):
            for fn in (
                lambda: fast_spont_broadcast_batch(
                    small_chain, source, constants, [rng]
                ),
                lambda: fast_nospont_broadcast_batch(
                    small_chain, source, constants, [rng]
                ),
                lambda: fast_uniform_broadcast_batch(
                    small_chain, source, [rng]
                ),
                lambda: fast_decay_broadcast_batch(
                    small_chain, source, [rng]
                ),
                lambda: fast_local_broadcast_global_batch(
                    small_chain, source, [rng]
                ),
            ):
                with pytest.raises(ProtocolError):
                    fn()


class TestCrossValidation:
    """Reference and fastsim implementations agree statistically."""

    def test_coloring_masses_comparable(self, small_square, constants):
        from repro.core.coloring import run_coloring
        from repro.core.properties import lemma1_max_color_mass

        ref = run_coloring(
            small_square, constants, np.random.default_rng(1)
        )
        fast = fast_coloring_batch(
            small_square, constants, [np.random.default_rng(1)]
        ).replication(0)
        m_ref = lemma1_max_color_mass(small_square, ref)
        m_fast = lemma1_max_color_mass(small_square, fast)
        # Same algorithm, same bound scale (within 4x of each other).
        assert m_fast < 4 * m_ref + 0.5
        assert m_ref < 4 * m_fast + 0.5

    def test_coloring_color_sets_overlap(self, small_square, constants):
        from repro.core.coloring import run_coloring

        ref = run_coloring(
            small_square, constants, np.random.default_rng(2)
        )
        fast = fast_coloring_batch(
            small_square, constants, [np.random.default_rng(2)]
        ).replication(0)
        # Both use the same ladder; the used color sets should intersect.
        assert set(ref.distinct_colors()) & set(fast.distinct_colors())

    def test_spont_rounds_same_scale(self, small_chain, constants):
        from repro.core.broadcast_spont import run_spont_broadcast

        ref_rounds, fast_rounds = [], []
        for seed in range(3):
            ref = run_spont_broadcast(
                small_chain, 0, constants, np.random.default_rng(seed)
            )
            fast = fast_spont_broadcast_batch(
                small_chain, 0, constants, [np.random.default_rng(seed)]
            )[0]
            assert ref.success and fast.success
            ref_rounds.append(ref.completion_round)
            fast_rounds.append(fast.completion_round)
        assert np.mean(fast_rounds) < 3 * np.mean(ref_rounds) + 50
        assert np.mean(ref_rounds) < 3 * np.mean(fast_rounds) + 50

    def test_nospont_rounds_same_scale(self, constants):
        from repro.core.broadcast_nospont import run_nospont_broadcast
        from repro.deploy import uniform_chain

        chain = uniform_chain(8, gap=0.5)
        ref = run_nospont_broadcast(
            chain, 0, constants, np.random.default_rng(3)
        )
        fast = fast_nospont_broadcast_batch(
            chain, 0, constants, [np.random.default_rng(3)]
        )[0]
        assert ref.success and fast.success
        assert fast.completion_round < 3 * ref.completion_round + 500
        assert ref.completion_round < 3 * fast.completion_round + 500
