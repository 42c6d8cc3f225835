"""Tests of the theoretical-analysis module (Theorems 1-5)."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import (
    AnalyticPoint,
    SingleBottleneck,
    analyze_scenario,
    bbr1_deep_buffer_equilibrium,
    bbr1_deep_buffer_max_eigenvalue,
    bbr1_shallow_buffer_eigenvalues,
    bbr1_shallow_buffer_equilibrium,
    bbr1_shallow_buffer_loss_fraction,
    bbr2_fair_equilibrium,
    bbr2_queue_reduction_vs_bbr1,
    check_bbr1_deep_buffer_stability,
    check_bbr1_numerical_stability,
    check_bbr1_shallow_buffer_stability,
    check_bbr2_numerical_stability,
    check_bbr2_stability,
    equilibrium_residual,
    integrate_reduced,
    mixed_reduced_rhs,
    numerical_jacobian,
    reduced_rhs,
)
from repro.experiments import scenarios

CAPACITY = 8333.0
DELAY = 0.035

flow_counts = st.integers(min_value=1, max_value=100)
delays = st.floats(min_value=0.001, max_value=0.5)


def make_net(n: int, delay: float = DELAY, buffer_pkts: float = float("inf")) -> SingleBottleneck:
    return SingleBottleneck(CAPACITY, (delay,) * n, buffer_pkts=buffer_pkts)


class TestTheorem1:
    def test_equilibrium_queue_equals_bdp(self):
        eq = bbr1_deep_buffer_equilibrium(make_net(10))
        assert eq.queue_pkts == pytest.approx(DELAY * CAPACITY)

    def test_arbitrary_splits_are_equilibria(self):
        net = make_net(3)
        eq = bbr1_deep_buffer_equilibrium(net, shares=(0.7, 0.2, 0.1))
        assert not eq.fair
        residual = equilibrium_residual(
            "bbr1", net, np.asarray(eq.rates_pps), eq.queue_pkts
        )
        assert residual < 1e-6

    def test_fair_split_is_equilibrium(self):
        net = make_net(5)
        eq = bbr1_deep_buffer_equilibrium(net)
        assert eq.fair
        assert equilibrium_residual("bbr1", net, np.asarray(eq.rates_pps), eq.queue_pkts) < 1e-6

    def test_requires_equal_delays(self):
        net = SingleBottleneck(CAPACITY, (0.02, 0.04))
        with pytest.raises(ValueError):
            bbr1_deep_buffer_equilibrium(net)

    def test_requires_large_enough_buffer(self):
        net = make_net(2, buffer_pkts=10.0)
        with pytest.raises(ValueError):
            bbr1_deep_buffer_equilibrium(net)

    def test_invalid_shares_rejected(self):
        net = make_net(2)
        with pytest.raises(ValueError):
            bbr1_deep_buffer_equilibrium(net, shares=(0.9, 0.9))


class TestTheorem2:
    def test_stable_for_short_and_long_delays(self):
        for delay in (0.01, 0.1, 0.4, 1.0):
            assert check_bbr1_deep_buffer_stability(delay).asymptotically_stable

    def test_closed_form_matches_numpy_eigenvalues(self):
        result = check_bbr1_deep_buffer_stability(DELAY)
        assert max(ev.real for ev in result.eigenvalues) == pytest.approx(
            bbr1_deep_buffer_max_eigenvalue(DELAY), abs=1e-9
        )

    def test_numerical_jacobian_confirms_stability(self):
        assert check_bbr1_numerical_stability(make_net(5)).asymptotically_stable

    @given(delays)
    @settings(max_examples=30)
    def test_max_eigenvalue_always_negative(self, delay):
        assert bbr1_deep_buffer_max_eigenvalue(delay) < 0


class TestTheorem3:
    def test_rate_formula(self):
        eq = bbr1_shallow_buffer_equilibrium(make_net(10, buffer_pkts=50.0))
        assert eq.rates_pps[0] == pytest.approx(5.0 * CAPACITY / 41.0)
        assert eq.fair

    def test_single_flow_has_no_loss(self):
        assert bbr1_shallow_buffer_loss_fraction(1) == 0.0

    def test_loss_approaches_twenty_percent(self):
        assert bbr1_shallow_buffer_loss_fraction(10_000) == pytest.approx(0.2, abs=1e-3)

    def test_loss_matches_equilibrium_excess(self):
        n = 10
        eq = bbr1_shallow_buffer_equilibrium(make_net(n, buffer_pkts=50.0))
        assert eq.loss_fraction(CAPACITY) == pytest.approx(
            bbr1_shallow_buffer_loss_fraction(n), rel=1e-9
        )

    def test_stability_eigenvalues_negative(self):
        repeated, aggregate = bbr1_shallow_buffer_eigenvalues(10)
        assert repeated < 0
        assert aggregate == pytest.approx(-1.0)
        assert check_bbr1_shallow_buffer_stability(10).asymptotically_stable

    @given(flow_counts)
    @settings(max_examples=30)
    def test_aggregate_rate_exceeds_capacity_for_multiple_flows(self, n):
        eq = bbr1_shallow_buffer_equilibrium(make_net(n, buffer_pkts=50.0))
        if n == 1:
            assert eq.aggregate_rate_pps == pytest.approx(CAPACITY)
        else:
            assert eq.aggregate_rate_pps > CAPACITY


class TestTheorems4And5:
    def test_equilibrium_queue_formula(self):
        n = 10
        eq = bbr2_fair_equilibrium(make_net(n))
        assert eq.queue_pkts == pytest.approx((n - 1) / (4 * n + 1) * DELAY * CAPACITY)
        assert eq.fair

    def test_single_flow_has_empty_queue(self):
        eq = bbr2_fair_equilibrium(make_net(1))
        assert eq.queue_pkts == pytest.approx(0.0)

    def test_queue_reduction_at_least_75_percent(self):
        for n in (2, 5, 10, 100, 10_000):
            assert bbr2_queue_reduction_vs_bbr1(n) >= 0.75

    def test_equilibrium_satisfies_conditions(self):
        net = make_net(7)
        eq = bbr2_fair_equilibrium(net)
        assert equilibrium_residual("bbr2", net, np.asarray(eq.rates_pps), eq.queue_pkts) < 1e-6

    def test_stability_closed_form_and_numerical(self):
        assert check_bbr2_stability(10, DELAY).asymptotically_stable
        assert check_bbr2_numerical_stability(make_net(10)).asymptotically_stable

    @given(st.integers(min_value=2, max_value=50), delays)
    @settings(max_examples=30)
    def test_stable_across_parameters(self, n, delay):
        assert check_bbr2_stability(n, delay).asymptotically_stable

    def test_bbr2_queue_always_below_bbr1_queue(self):
        for n in (2, 5, 20):
            net = make_net(n)
            assert (
                bbr2_fair_equilibrium(net).queue_pkts
                < bbr1_deep_buffer_equilibrium(net).queue_pkts
            )


class TestReducedModelConvergence:
    def test_bbr1_converges_to_theorem1_queue(self):
        net = make_net(10)
        x0 = np.full(10, CAPACITY / 10) * np.linspace(0.5, 1.5, 10)
        _, states = integrate_reduced("bbr1", net, x0, queue0=0.0, duration_s=40.0)
        assert states[-1, -1] == pytest.approx(DELAY * CAPACITY, rel=0.02)

    def test_bbr2_converges_to_theorem4_queue(self):
        n = 10
        net = make_net(n)
        x0 = np.full(n, CAPACITY / n) * np.linspace(0.8, 1.2, n)
        _, states = integrate_reduced("bbr2", net, x0, queue0=0.0, duration_s=40.0)
        expected = (n - 1) / (4 * n + 1) * DELAY * CAPACITY
        assert states[-1, -1] == pytest.approx(expected, rel=0.05)

    def test_bbr2_converges_to_fair_rates(self):
        n = 5
        net = make_net(n)
        x0 = np.array([0.3, 0.8, 1.0, 1.4, 1.5]) * CAPACITY / n
        _, states = integrate_reduced("bbr2", net, x0, queue0=0.0, duration_s=200.0)
        final_rates = states[-1, :-1]
        # The slowest eigenvalue of the reduced dynamics is -1/(4N+1), so the
        # initial 5x spread shrinks to within a few percent over 200 s.
        assert np.max(final_rates) / np.min(final_rates) == pytest.approx(1.0, abs=0.05)

    def test_shallow_buffer_forces_fairness_in_bbr1(self):
        # Theorem 3: with a buffer too small for the window to bind, BBRv1
        # flows converge to the perfectly fair 5C/(4N+1) allocation.
        n = 4
        shallow = make_net(n, buffer_pkts=20.0)
        x0 = np.array([0.2, 0.6, 1.2, 2.0]) * CAPACITY / n
        _, states = integrate_reduced("bbr1", shallow, x0, queue0=0.0, duration_s=200.0)
        final = states[-1, :-1]
        assert np.allclose(final, 5 * CAPACITY / (4 * n + 1), rtol=0.05)

    def test_invalid_arguments(self):
        net = make_net(2)
        with pytest.raises(ValueError):
            integrate_reduced("vegas", net, np.ones(2), 0.0)
        with pytest.raises(ValueError):
            integrate_reduced("bbr1", net, np.ones(3), 0.0)
        with pytest.raises(ValueError):
            integrate_reduced("bbr1", net, np.ones(2), 0.0, duration_s=-1.0)


class TestNumericalJacobian:
    def test_matches_closed_form_for_bbr2(self):
        n = 4
        net = make_net(n)
        eq = bbr2_fair_equilibrium(net)
        state = np.concatenate([np.asarray(eq.rates_pps), [eq.queue_pkts]])
        numeric = numerical_jacobian("bbr2", net, state)
        # The reduced model uses the BtlBw estimates as coordinates, so the
        # queue-derivative row is d q_dot / d x_btl_i = delta* (the paper's
        # closed form uses the clamped sending rates, where this row is 1).
        delta_star = (4.0 * n + 1.0) / (5.0 * n)
        np.testing.assert_allclose(numeric[-1, :-1], np.full(n, delta_star), atol=1e-5)
        # Stability is coordinate-independent: the numeric Jacobian must have
        # only eigenvalues with negative real part, like the closed form.
        assert np.max(np.linalg.eigvals(numeric).real) < 0


class TestSingleBottleneckValidation:
    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            SingleBottleneck(0.0, (0.03,))
        with pytest.raises(ValueError):
            SingleBottleneck(1000.0, ())
        with pytest.raises(ValueError):
            SingleBottleneck(1000.0, (-0.1,))
        with pytest.raises(ValueError):
            SingleBottleneck(1000.0, (0.03,), buffer_pkts=0.0)


def _oracle_mixed_rhs(
    t: float, state: np.ndarray, net: SingleBottleneck, versions: tuple[str, ...]
) -> np.ndarray:
    """Reference reduced-model RHS: the straightforward per-call formulation.

    Rebuilds every per-network constant and evaluates both window factors
    on each call.  :func:`reduced_rhs` must reproduce it bit for bit.
    """
    delays = np.asarray(net.propagation_delays_s)
    n = net.num_flows
    x_btl = np.maximum(state[:n], 1e-9)
    queue = float(np.clip(state[n], 0.0, net.buffer_pkts))
    capacity = net.capacity_pps
    is_v1 = np.array([v == "bbr1" for v in versions])
    delta = np.where(
        is_v1,
        2.0 * delays / (delays + queue / capacity),
        delays / (delays + queue / capacity),
    )
    background = np.minimum(1.0, delta) * x_btl
    probe = np.where(
        is_v1, np.minimum(1.25, delta) * x_btl, 1.25 * background
    )
    if queue > 0:
        total_others = np.sum(background) - background
        x_max = probe * capacity / (probe + total_others)
    else:
        x_max = probe
    dx = x_max - x_btl
    dq = float(np.sum(background)) - capacity
    if queue <= 0 and dq < 0:
        dq = 0.0
    if queue >= net.buffer_pkts and dq > 0:
        dq = 0.0
    return np.concatenate([dx, [dq]])


POPULATIONS = {
    "bbr1": ("bbr1",) * 6,
    "bbr2": ("bbr2",) * 6,
    "mixed": ("bbr1", "bbr2", "bbr2", "bbr1", "bbr1", "bbr2"),
}


class TestReducedRhsBitIdentity:
    """The hoisted RHS performs the oracle's float operations in its order.

    Closeness is not enough: the analytic ``loss_percent`` is
    ``1 - C/arrival`` with ``arrival ~ C``, so a one-ulp change in the RHS
    moves a stored metric past the 1e-9 reference tolerance.
    """

    @pytest.mark.parametrize("population", sorted(POPULATIONS))
    @pytest.mark.parametrize("heterogeneous", [False, True])
    @pytest.mark.parametrize("buffer_bdp", [2.5, math.inf])
    def test_matches_oracle(self, population, heterogeneous, buffer_bdp):
        versions = POPULATIONS[population]
        n = len(versions)
        delays = (
            tuple(np.linspace(0.01, 0.2, n)) if heterogeneous else (DELAY,) * n
        )
        bdp = CAPACITY * max(delays)
        net = SingleBottleneck(CAPACITY, delays, buffer_pkts=buffer_bdp * bdp)
        top = net.buffer_pkts if math.isfinite(net.buffer_pkts) else 40.0 * bdp
        queues = (-3.0, -0.0, 0.0, 1e-12, 0.37 * top, top, 1.5 * top)
        rng = np.random.default_rng(7)
        rates = [
            rng.uniform(0.0, 2.0 * CAPACITY / n, n) for _ in range(4)
        ] + [
            np.array([0.0, 1e-12, -5.0, 5e-10, 1e-9, CAPACITY])[:n],
            np.full(n, CAPACITY / n),
        ]
        rhs = reduced_rhs(net, versions)
        for x_btl in rates:
            for queue in queues:
                state = np.concatenate([x_btl, [queue]])
                expected = _oracle_mixed_rhs(0.0, state, net, versions)
                assert np.array_equal(rhs(0.0, state), expected), (x_btl, queue)
                assert np.array_equal(
                    mixed_reduced_rhs(0.0, state, net, versions), expected
                )

    def test_rejects_version_count_mismatch(self):
        with pytest.raises(ValueError):
            reduced_rhs(make_net(3), ("bbr1", "bbr2"))


def _paper_point(version: str, rates: tuple[float, ...], queue: float, loss: float) -> AnalyticPoint:
    return AnalyticPoint(
        version=version,
        regime="reduced-model",
        method="numerical",
        theorems="",
        capacity_pps=8333.333333333334,
        buffer_pkts=875.0000000000002,
        rates_pps=rates,
        queue_pkts=queue,
        loss_fraction=loss,
        classification="oscillatory",
        max_real_part=math.nan,
        eigenvalues=(),
    )


#: ``analyze_scenario`` of the paper's 3-BDP droptail grid points (10 flows,
#: 30-40 ms RTTs, so every one takes the numerical fallback), pinned exactly.
PAPER_GRID_3BDP = {
    "BBRv1": _paper_point(
        "bbr1",
        (
            3.529222756918473e-08, 1.083888235281151e-06, 3.0029371379053605e-05,
            0.0007541165240793809, 0.01724000921310737, 0.35976050410339694,
            6.779410463620392, 113.82323122730675, 1576.0331995526142,
            6636.326679894157,
        ),
        327.7211774848422,
        8.368292304661296e-07,
    ),
    "BBRv2": _paper_point(
        "bbr2",
        (
            77.12035864922457, 184.0770557707041, 345.8756201269258,
            538.7101598019563, 738.850074396145, 934.2207945126951,
            1120.9355397300762, 1298.4500844261697, 1467.2156350622543,
            1627.8766855017202,
        ),
        63.89256800421371,
        0.0,
    ),
    "BBRv1/BBRv2": _paper_point(
        "mixed",
        (
            0.0674037698116199, 2.1218741604196754, 58.862149495922104,
            1321.3383456852416, 6950.948612031769, 0.0, 0.0, 0.0, 0.0, 0.0,
        ),
        281.6878479211539,
        6.062168121934164e-07,
    ),
}


@pytest.mark.parametrize("mix", sorted(PAPER_GRID_3BDP))
def test_paper_grid_points_are_pinned(mix):
    config = scenarios.aggregate_scenario(mix, buffer_bdp=3.0, discipline="droptail")
    # ``max_real_part`` is the ``math.nan`` object on both sides, which the
    # dataclass equality (a tuple comparison) accepts by identity.
    assert analyze_scenario(config) == PAPER_GRID_3BDP[mix]
