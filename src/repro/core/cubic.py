"""TCP CUBIC fluid model (Appendix B.2, following Vardoyan et al.).

CUBIC cannot be written as a single ODE in the window size.  Instead the
model tracks two instrumental variables (Eq. 40a/40b):

* ``s_i`` — the time since the last loss event, which grows at unit rate in
  the absence of loss and is pulled back to zero when losses occur, and
* ``w_max_i`` — the window size at the moment of the last loss, which
  assimilates towards the current window under loss.

The congestion window is then given by the CUBIC window-growth function
(Eq. 41) with the standardised constants ``c = 0.4`` and ``b = 0.7``
(RFC 8312), and the sending rate again follows ``x = w / tau``.
"""

from __future__ import annotations

from collections.abc import Hashable
from typing import Any

import numpy as np

from .flow import FlowInputs, FlowInputsBatch, FlowState, FlowStateBatch, FluidCCA
from .network import Network

#: CUBIC growth constant ``c`` (RFC 8312 / Linux tcp_cubic).
CUBIC_C: float = 0.4
#: CUBIC multiplicative-decrease factor ``b`` (RFC 8312).
CUBIC_BETA: float = 0.7
#: Smallest congestion window maintained by the model, in packets.
MIN_WINDOW_PKTS: float = 1.0


def cubic_window(
    s: float | np.ndarray,
    w_max: float | np.ndarray,
    c: float = CUBIC_C,
    beta: float = CUBIC_BETA,
) -> float | np.ndarray:
    """CUBIC window-growth function ``w(s) = c (s - K)^3 + w_max`` (Eq. 41).

    ``K = (w_max * b / c)^(1/3)`` is the time at which the window returns to
    the pre-loss level ``w_max`` when growing from ``b * w_max``.  Accepts
    scalars or arrays (element-wise, for the batched model path).
    """
    if np.ndim(w_max) == 0:
        if w_max < 0:
            raise ValueError("w_max must be non-negative")
    elif np.any(np.asarray(w_max) < 0):
        raise ValueError("w_max must be non-negative")
    return _cubic_growth(s, w_max, c, beta)


def _cubic_growth(
    s: float | np.ndarray, w_max: float | np.ndarray, c: float, beta: float
) -> float | np.ndarray:
    """Eq. 41 without :func:`cubic_window`'s ``w_max >= 0`` check."""
    inflection = (w_max * beta / c) ** (1.0 / 3.0)
    return c * (s - inflection) ** 3 + w_max


class CubicFluid(FluidCCA):
    """Fluid model of TCP CUBIC."""

    name = "cubic"

    def __init__(self, initial_window_pkts: float = 10.0) -> None:
        if initial_window_pkts < MIN_WINDOW_PKTS:
            raise ValueError("initial window must be at least one packet")
        self.initial_window_pkts = initial_window_pkts

    def initial_state(
        self, flow_index: int, num_flows: int, network: Network, params: Any
    ) -> FlowState:
        state = FlowState()
        state.extra["s"] = 0.0
        state.extra["w_max"] = self.initial_window_pkts
        state.extra["cwnd"] = self.initial_window_pkts
        state.rate = 0.0
        return state

    def step(self, state: FlowState, inputs: FlowInputs) -> None:
        if not inputs.active:
            state.rate = 0.0
            return
        s = state.extra["s"]
        w_max = state.extra["w_max"]
        w = state.extra["cwnd"]
        x_delayed = inputs.rate_delayed
        p = min(1.0, max(0.0, inputs.path_loss))
        loss_rate = x_delayed * p  # losses per second observed by the sender
        # Eq. (40a): the elapsed-time variable grows at unit rate and is reset
        # towards zero at the rate at which losses arrive.
        s = max(0.0, s + inputs.dt * (1.0 - s * loss_rate))
        # Eq. (40b): the reference window assimilates to the current window
        # at the loss-arrival rate.
        w_max = max(MIN_WINDOW_PKTS, w_max + inputs.dt * (w - w_max) * loss_rate)
        w = max(MIN_WINDOW_PKTS, cubic_window(s, w_max))
        state.extra["s"] = s
        state.extra["w_max"] = w_max
        state.extra["cwnd"] = w
        state.rate = w / max(inputs.tau, 1e-9)
        self.update_inflight(state, inputs)

    def congestion_window(self, state: FlowState) -> float:
        return state.extra["cwnd"]

    # ------------------------------------------------------------------ #
    # Batched path
    # ------------------------------------------------------------------ #

    def batch_key(self) -> Hashable:
        # ``step`` reads no instance attributes, so all CUBIC flows batch
        # together regardless of their initial window.
        return ("cubic",)

    def step_all(self, batch: FlowStateBatch, inputs: FlowInputsBatch) -> None:
        extras = batch.extras
        s = extras["s"]
        w_max = extras["w_max"]
        w = extras["cwnd"]
        x_delayed = inputs.rate_delayed
        p = np.minimum(1.0, np.maximum(0.0, inputs.path_loss))
        loss_rate = x_delayed * p
        # Eq. (40a/40b) and Eq. (41), element-wise over every CUBIC flow.
        s_new = np.maximum(0.0, s + inputs.dt * (1.0 - s * loss_rate))
        w_max_new = np.maximum(
            MIN_WINDOW_PKTS, w_max + inputs.dt * (w - w_max) * loss_rate
        )
        # ``w_max_new >= MIN_WINDOW_PKTS`` by construction, so the per-step
        # non-negativity check of ``cubic_window`` is skipped.
        w_new = np.maximum(
            MIN_WINDOW_PKTS, _cubic_growth(s_new, w_max_new, CUBIC_C, CUBIC_BETA)
        )
        rate = w_new / np.maximum(inputs.tau, 1e-9)
        inflight = self.update_inflight_all(batch, inputs, rate)
        active = inputs.active
        if active is None:
            extras["s"] = s_new
            extras["w_max"] = w_max_new
            extras["cwnd"] = w_new
            batch.rate = rate
            batch.inflight = inflight
        else:
            extras["s"] = np.where(active, s_new, s)
            extras["w_max"] = np.where(active, w_max_new, w_max)
            extras["cwnd"] = np.where(active, w_new, w)
            batch.rate = np.where(active, rate, 0.0)
            batch.inflight = np.where(active, inflight, batch.inflight)
