"""Equivalence tests: vectorized vs. scalar method-of-steps integration.

The vectorized pipeline (batched history gathers, incidence-matrix link
updates, ``step_all`` CCA groups) must reproduce the scalar reference loop
to within 1e-9 on every recorded series — in practice the two paths execute
the same floating-point operations and agree to the last bit on most
scenarios.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import FlowConfig, FluidParams, ScenarioConfig, dumbbell_scenario
from repro.core import FluidSimulator, RenoFluid, simulate, simulate_many
from repro.core import simulator as simulator_module
from repro.experiments import scenarios

FAST = FluidParams(dt=2.5e-4)

FLOW_SERIES = ("rate", "delivery_rate", "cwnd", "inflight", "rtt")
LINK_SERIES = ("queue", "loss_prob", "arrival_rate", "departure_rate")


def assert_traces_match(a, b, rtol=1e-9, atol=1e-9):
    np.testing.assert_allclose(a.time, b.time, rtol=rtol, atol=atol)
    assert len(a.flows) == len(b.flows)
    for fa, fb in zip(a.flows, b.flows, strict=True):
        assert fa.cca == fb.cca
        for name in FLOW_SERIES:
            np.testing.assert_allclose(
                getattr(fa, name), getattr(fb, name), rtol=rtol, atol=atol,
                err_msg=f"flow series {name!r} diverged",
            )
        assert set(fa.extras) == set(fb.extras)
        for key in fa.extras:
            np.testing.assert_allclose(
                fa.extras[key], fb.extras[key], rtol=rtol, atol=atol,
                err_msg=f"extras {key!r} diverged",
            )
    assert len(a.links) == len(b.links)
    for la, lb in zip(a.links, b.links, strict=True):
        for name in LINK_SERIES:
            np.testing.assert_allclose(
                getattr(la, name), getattr(lb, name), rtol=rtol, atol=atol,
                err_msg=f"link series {name!r} diverged",
            )


def run_both(ccas, duration_s=1.0, **kwargs):
    config = dumbbell_scenario(ccas, duration_s=duration_s, fluid=FAST, **kwargs)
    scalar = simulate(config, vectorized=False)
    vectorized = simulate(config, vectorized=True)
    return scalar, vectorized


class TestScalarVectorizedEquivalence:
    def test_reno_homogeneous(self):
        assert_traces_match(*run_both(["reno"] * 4))

    def test_cubic_homogeneous(self):
        assert_traces_match(*run_both(["cubic"] * 4))

    def test_bbr1_homogeneous(self):
        assert_traces_match(*run_both(["bbr1"] * 4))

    def test_bbr2_homogeneous(self):
        assert_traces_match(*run_both(["bbr2"] * 4))

    def test_mixed_all_ccas(self):
        assert_traces_match(*run_both(["bbr1", "bbr2", "reno", "cubic", "reno"]))

    def test_mixed_bbr_scenario_red(self):
        assert_traces_match(*run_both(["bbr1", "bbr1", "reno", "bbr2"], discipline="red"))

    def test_single_flow(self):
        assert_traces_match(*run_both(["bbr1"]))

    def test_staggered_start_times(self):
        base = dumbbell_scenario(["reno", "bbr1", "cubic"], duration_s=1.5, fluid=FAST)
        flows = (
            base.flows[0],
            FlowConfig(cca="bbr1", access_delay_s=0.006, start_time_s=0.5),
            FlowConfig(cca="cubic", access_delay_s=0.007, start_time_s=0.9),
        )
        config = ScenarioConfig(
            bottleneck=base.bottleneck, flows=flows, duration_s=1.5, fluid=FAST
        )
        scalar = simulate(config, vectorized=False)
        vectorized = simulate(config, vectorized=True)
        assert_traces_match(scalar, vectorized)
        # Late flows must be silent before their start time on both paths.
        early = vectorized.time < 0.45
        assert np.all(vectorized.flows[1].rate[early] == 0.0)


class _UnbatchedReno(RenoFluid):
    """A model without batched support: must take the scalar fallback path."""

    def batch_key(self):
        return None

    def step_all(self, batch, inputs):  # pragma: no cover - must never run
        raise AssertionError("fallback model must not be stepped in batch")


class TestScalarFallback:
    def test_unbatched_model_in_vectorized_run(self):
        config = dumbbell_scenario(["reno", "reno", "bbr1"], duration_s=1.0, fluid=FAST)
        models = {0: _UnbatchedReno()}
        scalar = FluidSimulator(
            config, models={0: _UnbatchedReno()}, vectorized=False
        ).run()
        vectorized = FluidSimulator(config, models=models, vectorized=True).run()
        assert_traces_match(scalar, vectorized)


class TestSimulateMany:
    def test_matches_individual_runs(self):
        configs = [
            dumbbell_scenario(["bbr1"] * 3, duration_s=1.0, fluid=FAST, buffer_bdp=1.0),
            dumbbell_scenario(["reno", "bbr2"], duration_s=1.0, fluid=FAST, buffer_bdp=4.0),
            dumbbell_scenario(["cubic"] * 2, duration_s=1.0, fluid=FAST, discipline="red"),
        ]
        batched = simulate_many(configs)
        assert len(batched) == len(configs)
        for config, trace in zip(configs, batched, strict=True):
            assert_traces_match(simulate(config), trace)

    def test_empty_and_single(self):
        assert simulate_many([]) == []
        config = dumbbell_scenario(["reno"], duration_s=0.5, fluid=FAST)
        [trace] = simulate_many([config])
        assert trace.num_flows == 1

    def test_mismatched_dt_rejected(self):
        a = dumbbell_scenario(["reno"], duration_s=0.5, fluid=FluidParams(dt=2.5e-4))
        b = dumbbell_scenario(["reno"], duration_s=0.5, fluid=FluidParams(dt=1e-4))
        with pytest.raises(ValueError):
            simulate_many([a, b])

    def test_mismatched_duration_rejected(self):
        a = dumbbell_scenario(["reno"], duration_s=0.5, fluid=FAST)
        b = dumbbell_scenario(["reno"], duration_s=1.0, fluid=FAST)
        with pytest.raises(ValueError):
            simulate_many([a, b])


def assert_traces_identical(a, b):
    """Every recorded series equal bit for bit (NaN matching NaN)."""
    assert np.array_equal(a.time, b.time)
    for fa, fb in zip(a.flows, b.flows, strict=True):
        for name in FLOW_SERIES:
            assert np.array_equal(getattr(fa, name), getattr(fb, name), equal_nan=True), name
        for key in fa.extras:
            assert np.array_equal(fa.extras[key], fb.extras[key], equal_nan=True), key
    for la, lb in zip(a.links, b.links, strict=True):
        for name in LINK_SERIES:
            assert np.array_equal(getattr(la, name), getattr(lb, name), equal_nan=True), name


class TestUniformArrivalRowSum:
    """Per-link arrivals as one row-sum when every link has L users.

    The row-sum must equal the per-link ``.sum()`` loop it replaces bit for
    bit, not merely to a tolerance: stored campaign rows are compared
    against references computed with the loop.
    """

    @pytest.mark.parametrize("width", [1, 2, 5, 7, 8, 9, 10, 16, 17, 64, 129])
    def test_row_sum_equals_per_link_sum(self, width):
        rng = np.random.default_rng(width)
        num_links = 28
        rates = rng.lognormal(8.0, 2.0, size=num_links * width)
        bounds = list(range(0, num_links * width + 1, width))
        assert simulator_module._uniform_width(bounds) == width
        row_sum = np.zeros(num_links)
        rates.reshape(num_links, width).sum(axis=1, out=row_sum)
        per_link = np.array(
            [rates[lo:hi].sum() for lo, hi in zip(bounds[:-1], bounds[1:], strict=True)]
        )
        assert np.array_equal(row_sum, per_link)

    def test_ragged_or_empty_links_have_no_width(self):
        assert simulator_module._uniform_width([0, 5, 9, 13]) is None
        assert simulator_module._uniform_width([0, 0, 0]) is None
        assert simulator_module._uniform_width([0]) is None

    @staticmethod
    def _run(monkeypatch, configs, force_loop):
        widths = []
        real = simulator_module._uniform_width

        def spy(seg_bounds):
            widths.append(None if force_loop else real(seg_bounds))
            return widths[-1]

        monkeypatch.setattr(simulator_module, "_uniform_width", spy)
        return simulate_many(configs) if len(configs) > 1 else [simulate(configs[0])], widths

    def test_fluid_sweep_grid_is_bit_identical(self, monkeypatch):
        # The 28-scenario lockstep batch of the paper's Figs. 6-10 grid.
        configs = [
            scenarios.aggregate_scenario(
                mix, buffer_bdp=buffer_bdp, discipline=discipline, duration_s=0.3
            )
            for discipline in scenarios.DISCIPLINES
            for mix in scenarios.CCA_MIXES
            for buffer_bdp in (1.0, 4.0)
        ]
        row_sum, widths = self._run(monkeypatch, configs, force_loop=False)
        assert widths == [10]  # one combined network, ten users per link
        loop, _ = self._run(monkeypatch, configs, force_loop=True)
        for a, b in zip(row_sum, loop, strict=True):
            assert_traces_identical(a, b)

    def test_ragged_multi_hop_takes_the_loop(self, monkeypatch):
        # A multi-dumbbell with 5/4/4 users on its three bottlenecks.
        config = scenarios.topology_scenario(
            "multi-dumbbell", mix="BBRv1/CUBIC", hops=3, cross_flows=1,
            buffer_bdp=2.0, duration_s=0.3,
        )
        [ragged], widths = self._run(monkeypatch, [config], force_loop=False)
        assert widths == [None]
        [loop], _ = self._run(monkeypatch, [config], force_loop=True)
        assert_traces_identical(ragged, loop)
