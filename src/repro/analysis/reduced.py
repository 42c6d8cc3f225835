"""Reduced fluid models used for the theoretical analysis (Sections 5.1.1, 5.2.1).

For stability analysis the paper condenses the full fluid models into small
autonomous ODE systems:

* **BBRv1** (Eq. 33-34): the ProbeRTT state is dropped (``tau_min = d_i``),
  the maximum delivery-rate measurement is replaced by its closed form, and
  the periodic BtlBw adoption becomes a continuous assimilation
  ``d x_btl/dt = x_max - x_btl``.  The congestion-window constraint enters
  through ``Delta_i = 2 d_i / (d_i + sum_l q_l / C_l)``.
* **BBRv2** (Eq. 36-38): probing pulses at ``5/4`` of the estimate, cruising
  background traffic at the estimate, with the inflight-derived constraint
  ``delta_i = d_i / (d_i + sum_l q_l / C_l)`` (note ``delta_i = Delta_i / 2``).

These reduced models are used in two ways: numerically (integration with
scipy to demonstrate convergence to the equilibria of Theorems 1-5) and
analytically (Jacobians in :mod:`repro.analysis.stability`).  scipy is
imported by :func:`integrate_reduced` itself, so importing this module
needs only numpy.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class SingleBottleneck:
    """A single-bottleneck network for the reduced models.

    Attributes:
        capacity_pps: bottleneck capacity ``C``.
        propagation_delays_s: per-flow propagation RTT ``d_i`` (the analysis
            theorems assume a queue only at the bottleneck, in which case the
            equilibria require equal delays; heterogeneous values are allowed
            for numerical exploration).
        buffer_pkts: bottleneck buffer size (``inf`` = non-limiting).
    """

    capacity_pps: float
    propagation_delays_s: tuple[float, ...]
    buffer_pkts: float = float("inf")

    def __post_init__(self) -> None:
        if self.capacity_pps <= 0:
            raise ValueError("capacity must be positive")
        if not self.propagation_delays_s:
            raise ValueError("at least one flow is required")
        if any(d <= 0 for d in self.propagation_delays_s):
            raise ValueError("propagation delays must be positive")
        if self.buffer_pkts <= 0:
            raise ValueError("buffer must be positive")

    @property
    def num_flows(self) -> int:
        return len(self.propagation_delays_s)


def bbr1_delta(delays: np.ndarray, queue: float, capacity: float) -> np.ndarray:
    """BBRv1 congestion-window factor ``Delta_i = 2 d_i / (d_i + q / C)`` (Eq. 33)."""
    return 2.0 * delays / (delays + queue / capacity)


def bbr2_delta(delays: np.ndarray, queue: float, capacity: float) -> np.ndarray:
    """BBRv2 inflight factor ``delta_i = d_i / (d_i + q / C)`` (Eq. 36)."""
    return delays / (delays + queue / capacity)


def bbr1_xmax(x_btl: np.ndarray, delta: np.ndarray, queue: float, capacity: float) -> np.ndarray:
    """Maximum delivery-rate measurement of BBRv1 (Eq. 33)."""
    probe = np.minimum(1.25, delta) * x_btl
    background = np.minimum(1.0, delta) * x_btl
    if queue > 0:
        total_others = np.sum(background) - background
        return probe * capacity / (probe + total_others)
    return probe


def bbr2_xmax(x_btl: np.ndarray, delta: np.ndarray, queue: float, capacity: float) -> np.ndarray:
    """Maximum delivery-rate measurement of BBRv2 (Eq. 38)."""
    probe = 1.25 * np.minimum(1.0, delta) * x_btl
    background = np.minimum(1.0, delta) * x_btl
    if queue > 0:
        total_others = np.sum(background) - background
        return probe * capacity / (probe + total_others)
    return probe


def reduced_rhs(
    net: SingleBottleneck, versions: Sequence[str]
) -> Callable[[float, np.ndarray], np.ndarray]:
    """Right-hand side ``rhs(t, state)`` of the reduced dynamics of ``net``.

    Each flow follows its own version's window factor (Eq. 33 for
    ``"bbr1"``, Eq. 36-38 for ``"bbr2"``) while all flows share the
    bottleneck's proportional delivery.  State layout:
    ``[x_btl_1, ..., x_btl_N, q]``.

    The per-network constants and the pure-v1 / pure-v2 / mixed branch are
    fixed once here, so an ODE solver's many calls only do the per-state
    arithmetic.  Every branch performs the same floating-point operations
    in the same order as the mixed formula (``np.where`` over both
    factors): the analytic substrate's ``loss_percent = 1 - C/arrival``
    cancels catastrophically, so a one-ulp change in the RHS shows up in
    the stored metrics.
    """
    n = net.num_flows
    if len(versions) != n:
        raise ValueError("one version per flow is required")
    capacity = net.capacity_pps
    buffer = net.buffer_pkts
    delays = np.asarray(net.propagation_delays_s, dtype=float)
    two_d = 2.0 * delays
    is_v1 = np.array([v == "bbr1" for v in versions])
    all_v1 = bool(is_v1.all())
    all_v2 = not is_v1.any()
    add = np.add.reduce

    def rhs(t: float, state: np.ndarray) -> np.ndarray:
        x_btl = np.maximum(state[:n], 1e-9)
        queue = min(max(float(state[n]), 0.0), buffer)
        denom = delays + queue / capacity
        if all_v1:
            delta = two_d / denom
            background = np.minimum(1.0, delta) * x_btl
            probe = np.minimum(1.25, delta) * x_btl
        elif all_v2:
            delta = delays / denom
            background = np.minimum(1.0, delta) * x_btl
            probe = 1.25 * background
        else:
            delta = np.where(is_v1, two_d / denom, delays / denom)
            background = np.minimum(1.0, delta) * x_btl
            probe = np.where(is_v1, np.minimum(1.25, delta) * x_btl, 1.25 * background)
        total = add(background)
        out = np.empty(n + 1)
        if queue > 0:
            out[:n] = probe * capacity / (probe + (total - background)) - x_btl
        else:
            out[:n] = probe - x_btl
        dq = float(total) - capacity
        if (queue <= 0 and dq < 0) or (queue >= buffer and dq > 0):
            dq = 0.0
        out[n] = dq
        return out

    return rhs


def integrate_reduced(
    version: str,
    net: SingleBottleneck,
    x_btl0: np.ndarray,
    queue0: float,
    duration_s: float = 60.0,
    max_step: float = 0.05,
) -> tuple[np.ndarray, np.ndarray]:
    """Integrate a reduced model and return ``(time, states)``.

    ``states`` has shape ``(len(time), N + 1)`` with the queue as last column.
    """
    if version not in ("bbr1", "bbr2"):
        raise ValueError("version must be 'bbr1' or 'bbr2'")
    if duration_s <= 0:
        raise ValueError("duration must be positive")
    x_btl0 = np.asarray(x_btl0, dtype=float)
    if x_btl0.shape != (net.num_flows,):
        raise ValueError("x_btl0 must have one entry per flow")
    from scipy.integrate import solve_ivp

    solution = solve_ivp(
        reduced_rhs(net, (version,) * net.num_flows),
        (0.0, duration_s),
        np.concatenate([x_btl0, [queue0]]),
        max_step=max_step,
        dense_output=False,
        rtol=1e-8,
        atol=1e-8,
    )
    return solution.t, solution.y.T
