"""Array-native method-of-steps integrator for the network fluid model
(Section 4.1.1).

The fluid model is a system of delay differential equations: every step the
simulator

1. reads the delayed sending rates of all flows to form per-link arrival
   rates (Eq. 1),
2. evaluates the queue-discipline loss model (Eq. 4 / Eq. 6),
3. computes per-flow path latency (Eq. 3), observed path loss (Eq. 7) and
   delivery rate (Eq. 17) from delayed link state,
4. lets every flow's CCA model advance its own state and sending rate,
5. integrates the link queues (Eq. 2), and
6. pushes the new samples into the ring-buffer histories.

Because every delay of a scenario is a *constant*, the default
(``vectorized=True``) pipeline hoists all delay arithmetic out of the loop:
delays become integer lag tables computed once, per-component ring-buffer
reads become one batched :meth:`~repro.core.history.VectorHistory.gather`
per signal per step, the flow→link incidence structure turns Eq. 1 into a
gather-plus-segment-sum and Eq. 3 into a matrix-vector product, and the
loss/queue updates (Eq. 4/6, Eq. 2) run as single numpy expressions over
every queued link at once.  Flows whose CCA model implements the batched
``step_all`` protocol (all four built-in models) advance as
structure-of-arrays groups; models without it — custom or user-supplied —
fall back to the per-flow scalar ``step``, so arbitrary heterogeneous mixes
keep working.

The original per-flow/per-link scalar loop is retained behind
``vectorized=False`` as the numerical reference: both paths execute the
same floating-point operations in the same order and produce identical
traces (asserted by the equivalence tests in
``tests/test_simulator_vectorized.py``).

Both pipelines execute arbitrary multi-bottleneck topologies
(:class:`~repro.config.TopologyConfig`; parking lots, multi-dumbbells): all
K queued links integrate their queue/loss state together, per-flow path
latency sums the per-link queueing delays (Eq. 3), and a flow crossing
several queued links observes the composed path loss ``1 - prod(1 - p_l)``
with per-link backward delays (Eq. 7 generalised).

Eq. 1 was derived for a single bottleneck, where a link's arrival rate is
the sum of the flows' delayed *sending* rates.  On a multi-hop path that
overestimates downstream load: traffic reaching link ``l`` has already
been thinned by every upstream drop.  Both pipelines therefore attenuate
per-link arrivals along the path — the contribution of flow ``i`` to link
``l`` is its delayed sending rate run through ``r <- min(r * (1 - p_m),
C_m)`` for every upstream queued link ``m`` in path order, i.e. multiplied
by the upstream survival product and capped by the smallest upstream
delivered capacity, with each ``p_m`` read at the lag the traffic actually
crossed ``m``.  The delivery rate (Eq. 17) is then taken at the flow's
*effective* bottleneck: the path link with the smallest survival-scaled
capacity ``C_l / prod_upstream(1 - p_m)`` (re-evaluated every step from
the delayed loss state), using the flow's attenuated contribution as the
numerator.  ``attenuate_arrivals=False`` restores the unattenuated Eq.-1
arrivals (the pre-attenuation pipeline, kept for regression and
benchmarking).  Flows crossing a single queued link take exactly the
legacy single-bottleneck code path, so a one-hop topology is bit-identical
with the dumbbell form, and loss-free multi-hop runs whose rates stay
below every upstream capacity are bit-identical with the unattenuated
model.

The per-flow CCA dynamics live in :mod:`repro.core.reno`, ``cubic``,
``bbr1`` and ``bbr2``; the simulator is agnostic to them and supports
arbitrary mixes of CCAs, which is how the heterogeneous scenarios of the
paper's evaluation (e.g. BBRv1 vs. Reno) are expressed.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from collections.abc import Sequence

import numpy as np

from ..config import FlowArrival, ScenarioConfig
from ..metrics.traces import FlowTrace, LinkTrace, Trace
from ..obs import TELEMETRY
from . import queues
from .flow import FlowInputs, FlowInputsBatch, FluidCCA
from .history import VectorHistory
from .network import Network, Path
from .registry import create_model


def _uniform_width(seg_bounds: Sequence[int]) -> int | None:
    """The common user count of every queued link, or ``None`` if they differ.

    ``seg_bounds`` delimits each link's run of (link, user) pairs.  When all
    runs have the same non-zero length ``L``, the per-link arrival sums are
    one row-sum of the pairs reshaped to ``(links, L)``: numpy reduces each
    contiguous row with the same pairwise summation as a 1-D ``.sum()``, so
    the result is bit-identical to summing link by link.
    """
    widths = {hi - lo for lo, hi in zip(seg_bounds[:-1], seg_bounds[1:], strict=True)}
    if len(widths) != 1:
        return None
    width = widths.pop()
    return width if width > 0 else None


@dataclass
class _LinkState:
    """Mutable per-link state of the scalar reference integrator."""

    queue: float = 0.0
    loss: float = 0.0
    arrival: float = 0.0
    departure: float = 0.0


class FluidSimulator:
    """Simulates a :class:`~repro.config.ScenarioConfig` with the fluid model."""

    def __init__(
        self,
        config: ScenarioConfig,
        models: dict[int, FluidCCA] | None = None,
        record_interval_s: float = 1e-3,
        vectorized: bool = True,
        network: Network | None = None,
        initial_states: list | None = None,
        attenuate_arrivals: bool = True,
        schedule_entries: Sequence[FlowArrival] | None = None,
    ) -> None:
        if record_interval_s < config.fluid.dt:
            raise ValueError("record interval must be at least one integration step")
        self.config = config
        # ``schedule_entries`` lets :func:`simulate_many` hand over the
        # concatenated per-scenario schedules of a merged batch; a plain run
        # materialises its own config's schedule (or ``None`` for the
        # legacy static population).
        if schedule_entries is not None:
            self._schedule_entries: tuple[FlowArrival, ...] | None = tuple(
                schedule_entries
            )
        else:
            self._schedule_entries = config.flow_schedule()
        if (
            self._schedule_entries is not None
            and len(self._schedule_entries) != len(config.flows)
        ):
            raise ValueError("schedule entries must match the flow count")
        self.network = network if network is not None else Network.from_scenario(config)
        self.dt = config.fluid.dt
        self.record_interval_s = record_interval_s
        self.vectorized = vectorized
        # Upstream loss/capacity attenuation of per-link arrivals (and the
        # matching effective-bottleneck Eq. 17).  Only multi-hop paths are
        # affected; ``False`` restores the unattenuated Eq.-1 arrivals of
        # the original pipeline (kept for regression and benchmarking).
        self.attenuate_arrivals = attenuate_arrivals
        # ``initial_states`` lets :func:`simulate_many` hand over states that
        # were built with each scenario's own flow indexing (e.g. the BBR
        # gain-cycle phase is ``flow_index % 6`` *within* its scenario).
        self._initial_states = initial_states
        self.models: dict[int, FluidCCA] = {}
        for i, flow_cfg in enumerate(config.flows):
            if models and i in models:
                self.models[i] = models[i]
            else:
                self.models[i] = create_model(flow_cfg.cca, config.fluid)
        #: Substrate counters of the last completed run (steps, flows,
        #: links, gathers) — the fluid half of the stored ``runtime``
        #: block.  Populated by both pipelines; empty before any run.
        self.runtime: dict[str, int] = {}

    def _flow_lifetimes(self):
        """Per-flow start/stop/size arrays and whether any flow can depart.

        Returns ``(start_times, stop_times, flow_sizes, churn)``.  Without a
        schedule — or with a schedule of long-lived flows only — ``churn``
        is False and the pipelines keep the legacy start-only masking
        (bit-identical with the pre-schedule integrator).
        """
        entries = self._schedule_entries
        if entries is None:
            start_times = np.array(
                [f.start_time_s for f in self.config.flows], dtype=float
            )
            return start_times, None, None, False
        start_times = np.array([e.start_time_s for e in entries], dtype=float)
        stop_times = np.array(
            [math.inf if e.stop_time_s is None else e.stop_time_s for e in entries],
            dtype=float,
        )
        flow_sizes = np.array(
            [math.inf if e.size_packets is None else e.size_packets for e in entries],
            dtype=float,
        )
        churn = bool(np.any(np.isfinite(stop_times)) or np.any(np.isfinite(flow_sizes)))
        return start_times, stop_times, flow_sizes, churn

    @staticmethod
    def _flow_end_list(
        churn: bool,
        num_flows: int,
        duration_s: float,
        completed,
        end_times,
        stop_times,
    ) -> list[float | None]:
        """Per-flow departure times for the trace (``None`` = never departed)."""
        if not churn:
            return [None] * num_flows
        ends: list[float | None] = []
        for i in range(num_flows):
            if completed[i]:
                ends.append(float(end_times[i]))
            elif stop_times[i] <= duration_s:
                ends.append(float(stop_times[i]))
            else:
                ends.append(None)
        return ends

    def _make_states(self) -> list:
        if self._initial_states is not None:
            return list(self._initial_states)
        net = self.network
        cfg = self.config
        return [
            self.models[i].initial_state(i, net.num_flows, net, cfg.fluid)
            for i in range(net.num_flows)
        ]

    # ------------------------------------------------------------------ #
    # Main loop
    # ------------------------------------------------------------------ #

    def run(self) -> Trace:
        """Integrate the scenario and return the recorded trace."""
        with TELEMETRY.span(
            "fluid.integrate",
            flows=self.network.num_flows,
            duration_s=self.config.duration_s,
            vectorized=self.vectorized,
        ):
            if self.vectorized:
                trace = self._run_vectorized()
            else:
                trace = self._run_scalar()
        if TELEMETRY.enabled and self.runtime:
            TELEMETRY.count("fluid.steps", self.runtime["steps"])
            TELEMETRY.count("fluid.gathers", self.runtime.get("gathers", 0))
        return trace

    # ------------------------------------------------------------------ #
    # Vectorized pipeline (default)
    # ------------------------------------------------------------------ #

    def _run_vectorized(self) -> Trace:
        net = self.network
        cfg = self.config
        dt = self.dt
        num_flows = net.num_flows
        queued_links = net.queued_link_indices()
        num_queued = len(queued_links)

        # ---------- constant per-flow / per-link tables ---------------- #
        propagation_rtt = np.array(
            [net.propagation_rtt(i) for i in range(num_flows)], dtype=float
        )
        bottleneck_of = [net.bottleneck_of(i) for i in range(num_flows)]
        backward_delay = np.array(
            [net.backward_delay(i, bottleneck_of[i]) for i in range(num_flows)]
        )
        start_times, stop_times, flow_sizes, churn = self._flow_lifetimes()
        max_start = float(np.max(start_times))
        if churn:
            # Active-flow masking state: cumulative delivered volume drives
            # finite-size completion; completed (or stopped) flows are
            # masked out of the CCA updates from the *next* step on, so
            # their rate pins to zero and they contribute no arrivals —
            # without ever re-allocating the incidence pipeline.
            delivered_vol = np.zeros(num_flows)
            completed = np.zeros(num_flows, dtype=bool)
            end_times = np.full(num_flows, math.nan)

        max_delay = float(np.max(propagation_rtt)) + dt
        rate_history = VectorHistory(num_flows, dt, max_delay)
        latency_history = VectorHistory(num_flows, dt, max_delay, initial=propagation_rtt)
        # One merged history for the queued-link state, laid out as
        # [arrival | queue | loss] so the per-flow observation block needs a
        # single gather per step.
        link_history = VectorHistory(max(3 * num_queued, 1), dt, max_delay)

        # Flow -> link incidence for Eq. 1: the delayed sending rates of all
        # (link, user) pairs are gathered at once and segment-summed.
        user_flows: list[int] = []
        user_delays: list[float] = []
        seg_bounds = [0]
        for idx in queued_links:
            for i in net.users(idx):
                user_flows.append(i)
                user_delays.append(net.forward_delay(i, idx))
            seg_bounds.append(len(user_flows))
        user_flows_arr = np.array(user_flows, dtype=np.intp)
        user_lags = rate_history.lag_steps(np.array(user_delays, dtype=float))
        segments = [slice(seg_bounds[k], seg_bounds[k + 1]) for k in range(num_queued)]
        uniform_width = _uniform_width(seg_bounds)

        # Per-flow bottleneck bookkeeping for Eqs. 7 and 17.
        pos_of_link = {idx: pos for pos, idx in enumerate(queued_links)}
        btl_pos = np.array([pos_of_link[b] for b in bottleneck_of], dtype=np.intp)
        btl_capacity = np.array(
            [net.links[b].capacity_pps for b in bottleneck_of], dtype=float
        )
        flow_index = np.arange(num_flows, dtype=np.intp)
        own_lags = rate_history.lag_steps(propagation_rtt + dt)
        rtt_lags = latency_history.lag_steps(propagation_rtt)
        back_lags = link_history.lag_steps(backward_delay)
        obs_cols = np.concatenate(
            [btl_pos, num_queued + btl_pos, 2 * num_queued + btl_pos]
        )
        obs_lags = np.concatenate([back_lags, back_lags, back_lags])

        # Multi-bottleneck paths: a flow crossing several queued links
        # observes the *composed* path loss 1 - prod_l (1 - p_l), each link's
        # loss delayed by its own backward delay (Eq. 7 generalised to K
        # links).  Flows with a single queued link keep the direct bottleneck
        # gather above — bit-identical with the legacy dumbbell pipeline.
        multi_flows: list[int] = []
        multi_cols: list[int] = []
        multi_delays: list[float] = []
        multi_bounds = [0]
        for i in range(num_flows):
            queued_on_path = [
                idx for idx in net.paths[i].link_indices if idx in pos_of_link
            ]
            if len(queued_on_path) < 2:
                continue
            multi_flows.append(i)
            for idx in queued_on_path:
                multi_cols.append(2 * num_queued + pos_of_link[idx])
                multi_delays.append(net.backward_delay(i, idx))
            multi_bounds.append(len(multi_cols))
        attenuating = self.attenuate_arrivals
        if multi_flows:
            multi_flows_arr = np.array(multi_flows, dtype=np.intp)
            multi_cols_arr = np.array(multi_cols, dtype=np.intp)
            multi_lags = link_history.lag_steps(np.array(multi_delays, dtype=float))
            multi_starts = np.array(multi_bounds[:-1], dtype=np.intp)
        if multi_flows and attenuating:
            # Dynamic effective bottleneck (Eq. 17 under attenuation): per
            # step, each multi-hop flow's reference link is the path link
            # with the smallest survival-scaled capacity C_l / S_l, where
            # S_l is the flow's survival product over links upstream of l
            # (ties pick the most upstream link).  The per-pair survive
            # factors are the same backward-delayed gathers the composed
            # path loss already uses; arrival/queue of the chosen link are
            # gathered at its own backward delay.  The per-pair arrays are
            # processed as a rectangular (num_multi, max_len) matrix —
            # segments shorter than max_len are padded with survive = 1 /
            # capacity = inf so they never win the argmin.
            num_multi = len(multi_flows)
            multi_links = [
                idx
                for i in multi_flows
                for idx in net.paths[i].link_indices
                if idx in pos_of_link
            ]
            multi_caps = np.array(
                [net.links[idx].capacity_pps for idx in multi_links], dtype=float
            )
            multi_arr_cols = multi_cols_arr - 2 * num_queued
            multi_q_cols = multi_cols_arr - num_queued
            seg_lens = np.diff(multi_bounds)
            max_len = int(seg_lens.max())
            ragged = bool(np.any(seg_lens != max_len))
            pad_idx = np.zeros((num_multi, max_len), dtype=np.intp)
            pad_invalid = np.ones((num_multi, max_len), dtype=bool)
            for row, (start, length) in enumerate(zip(multi_starts, seg_lens, strict=True)):
                pad_idx[row, :length] = np.arange(start, start + length)
                pad_invalid[row, :length] = False
            caps_pad = multi_caps[pad_idx]
            caps_pad[pad_invalid] = np.inf
            pad_valid = ~pad_invalid
            multi_rows = np.arange(num_multi)
            # Reusable per-step buffers (survive matrix, exclusive prefix
            # survival, attenuated contribution, effective capacity).
            surv_pad = np.ones((num_multi, max_len))
            surv_prefix = np.ones((num_multi, max_len))
            own_contrib = np.empty((num_multi, max_len))
            eff_capacity = np.empty((num_multi, max_len))

        # Upstream attenuation tables for Eq. 1: the contribution of flow i
        # to link l is its delayed sending rate run through
        # ``r <- min(r * (1 - p_m), C_m)`` over the queued links m upstream
        # of l in path order — the survival product capped by the smallest
        # upstream delivered capacity.  Each p_m is read at the lag the
        # traffic actually crossed m, ``d^f_{i,l} - d^f_{i,m}``.  Pairs
        # whose link is the flow's first queued link have no upstream terms
        # and keep the exact legacy arithmetic (one-hop scenarios stay
        # bit-identical).  Pairs are sorted by upstream depth (deepest
        # first) so each depth level is a leading slice, and all depth
        # levels share one gather per step.
        att_positions = np.empty(0, dtype=np.intp)
        att_levels: list[tuple[slice, slice, np.ndarray]] = []
        if attenuating:
            att_list: list[tuple[int, int, int, list[int]]] = []
            pos = 0
            for idx in queued_links:
                for i in net.users(idx):
                    ups = net.upstream_queued_links(i, idx)
                    if ups:
                        att_list.append((pos, i, idx, ups))
                    pos += 1
            att_list.sort(key=lambda entry: -len(entry[3]))
            if att_list:
                att_positions = np.array([p for p, _, _, _ in att_list], dtype=np.intp)
                max_depth = len(att_list[0][3])
                att_cols: list[int] = []
                att_delays: list[float] = []
                for d in range(max_depth):
                    count = sum(1 for _, _, _, ups in att_list if len(ups) > d)
                    caps = np.empty(count)
                    for local, (_, i, idx, ups) in enumerate(att_list[:count]):
                        m = ups[d]
                        att_cols.append(2 * num_queued + pos_of_link[m])
                        att_delays.append(
                            net.forward_delay(i, idx) - net.forward_delay(i, m)
                        )
                        caps[local] = net.links[m].capacity_pps
                    offset = len(att_cols) - count
                    att_levels.append(
                        (slice(0, count), slice(offset, offset + count), caps)
                    )
                att_cols_arr = np.array(att_cols, dtype=np.intp)
                att_lags = link_history.lag_steps(np.array(att_delays, dtype=float))

        # All link-state reads of a step sample the same (immutable) ring
        # buffer, so the attenuated pipeline fuses them into one gather:
        # [attenuation survivals | per-flow bottleneck obs | multi-pair
        # loss | multi-pair arrival | multi-pair queue].
        fused_cols = None
        if attenuating and multi_flows:
            pieces = (
                (att_cols_arr, att_lags),
                (obs_cols, obs_lags),
                (multi_cols_arr, multi_lags),
                (multi_arr_cols, multi_lags),
                (multi_q_cols, multi_lags),
            )
            fused_cols = np.concatenate([cols for cols, _ in pieces])
            fused_lags = np.concatenate([lags for _, lags in pieces])
            bounds = np.cumsum([0] + [len(cols) for cols, _ in pieces])
            (s_att, s_obs, s_loss, s_arr, s_queue) = (
                slice(bounds[k], bounds[k + 1]) for k in range(5)
            )

        # Path latency (Eq. 3) = constant propagation part + incidence
        # matrix times the per-link queueing delays.
        latency_const = np.empty(num_flows)
        queue_incidence = np.zeros((num_flows, num_queued))
        for i in range(num_flows):
            path = net.paths[i]
            acc = path.return_delay_s
            for idx in path.link_indices:
                acc += net.links[idx].delay_s
            latency_const[i] = acc
            for idx in path.link_indices:
                if idx in pos_of_link:
                    queue_incidence[i, pos_of_link[idx]] = 1.0

        # Queued-link parameter arrays for Eq. 2 and Eq. 4/6.
        link_capacity = np.array(
            [net.links[idx].capacity_pps for idx in queued_links], dtype=float
        )
        link_buffer = np.array(
            [net.links[idx].buffer_pkts for idx in queued_links], dtype=float
        )
        disciplines = [net.links[idx].discipline for idx in queued_links]
        all_droptail = all(d == "droptail" for d in disciplines)
        all_red = all(d == "red" for d in disciplines)
        droptail_mask = np.array([d == "droptail" for d in disciplines])
        sharpness = cfg.fluid.sigmoid_sharpness
        exponent = cfg.fluid.droptail_exponent
        literal_xmax = cfg.fluid.literal_xmax

        # ---------- CCA states: batched groups + scalar fallback -------- #
        states = self._make_states()
        group_indices: dict[object, list[int]] = {}
        for i in range(num_flows):
            key = self.models[i].batch_key()
            if key is None:
                group_indices.setdefault(("scalar", i), [i])
            else:
                group_indices.setdefault(key, []).append(i)
        batch_groups = []  # (model, selector, batch, reusable FlowInputsBatch)
        scalar_flows: list[int] = []
        for key, flow_ids in group_indices.items():
            if isinstance(key, tuple) and key and key[0] == "scalar":
                scalar_flows.extend(flow_ids)
                continue
            model = self.models[flow_ids[0]]
            batch = model.make_batch([states[i] for i in flow_ids])
            if len(flow_ids) == num_flows:
                idx = None  # whole-population group: pass full arrays through
            elif flow_ids == list(range(flow_ids[0], flow_ids[-1] + 1)):
                # Contiguous block (typical for the paper's 5+5 mixes):
                # views instead of fancy-index copies in the hot loop.
                idx = slice(flow_ids[0], flow_ids[-1] + 1)
            else:
                idx = np.array(flow_ids, dtype=np.intp)
            group_rtt = propagation_rtt if idx is None else propagation_rtt[idx]
            inputs = FlowInputsBatch(
                t=0.0,
                dt=dt,
                tau=latency_const,
                tau_delayed=latency_const,
                path_loss=latency_const,
                delivery_rate=latency_const,
                rate_delayed=latency_const,
                propagation_rtt=group_rtt,
                active=None,
                literal_xmax=literal_xmax,
            )
            batch_groups.append((model, idx, batch, inputs))
        scalar_flows.sort()

        # ---------- trace recording buffers ----------------------------- #
        steps = int(round(cfg.duration_s / dt))
        record_every = max(1, int(round(self.record_interval_s / dt)))
        num_records = steps // record_every + 1
        rec_time = np.zeros(num_records)
        rec_rate = np.zeros((num_records, num_flows))
        rec_delivery = np.zeros((num_records, num_flows))
        rec_cwnd = np.zeros((num_records, num_flows))
        rec_inflight = np.zeros((num_records, num_flows))
        rec_rtt = np.zeros((num_records, num_flows))
        rec_link = np.zeros((num_records, 4 * num_queued))  # queue|loss|arrival|departure
        group_extras = [
            {
                key: np.zeros((num_records, batch.size))
                for key in model.trace_fields_all(batch)
            }
            for model, idx, batch, _ in batch_groups
        ]
        scalar_extras = {
            i: {key: np.zeros(num_records) for key in self.models[i].trace_fields(states[i])}
            for i in scalar_flows
        }
        record_index = 0

        # ---------- mutable per-step arrays ----------------------------- #
        queue_arr = np.zeros(num_queued)
        arrival = np.zeros(num_queued)
        rates_all = np.zeros(num_flows)
        delivery_rates = np.zeros(num_flows)

        for step in range(steps + 1):
            t = step * dt
            if fused_cols is not None:
                fused = link_history.gather(fused_cols, fused_lags)

            # 1. Link arrival rates from delayed sending rates (Eq. 1),
            # attenuated by upstream loss and capacity along each path.
            delayed_rates = rate_history.gather(user_flows_arr, user_lags)
            if att_positions.size:
                att_surv = 1.0 - fused[s_att]
                contrib = delayed_rates[att_positions]
                for rows, seg, caps in att_levels:
                    np.minimum(contrib[rows] * att_surv[seg], caps, out=contrib[rows])
                delayed_rates[att_positions] = contrib
            if uniform_width is not None:
                delayed_rates.reshape(num_queued, uniform_width).sum(axis=1, out=arrival)
            else:
                for k in range(num_queued):
                    arrival[k] = delayed_rates[segments[k]].sum()
            if all_droptail:
                loss = queues.droptail_loss_vec(
                    arrival, link_capacity, queue_arr, link_buffer, sharpness, exponent
                )
            elif all_red:
                loss = queues.red_loss_vec(queue_arr, link_buffer)
            else:
                loss = np.where(
                    droptail_mask,
                    queues.droptail_loss_vec(
                        arrival, link_capacity, queue_arr, link_buffer, sharpness, exponent
                    ),
                    queues.red_loss_vec(queue_arr, link_buffer),
                )
            departure = np.where(
                queue_arr > 0,
                link_capacity,
                np.minimum((1.0 - loss) * arrival, link_capacity),
            )

            # 2. Per-flow observations: path latency (Eq. 3), observed loss
            # (Eq. 7) and delivery rate (Eq. 17), all flows at once.
            queueing_delay = queue_arr / link_capacity
            latency = latency_const + queue_incidence @ queueing_delay
            own_delayed = rate_history.gather(flow_index, own_lags)
            tau_delayed = latency_history.gather(flow_index, rtt_lags)
            if fused_cols is not None:
                obs = fused[s_obs]
            else:
                obs = link_history.gather(obs_cols, obs_lags)
            y_delayed = obs[:num_flows]
            q_delayed = obs[num_flows : 2 * num_flows]
            p_delayed = obs[2 * num_flows :]
            if multi_flows:
                if fused_cols is not None:
                    survive = 1.0 - fused[s_loss]
                else:
                    survive = 1.0 - link_history.gather(multi_cols_arr, multi_lags)
                p_delayed[multi_flows_arr] = 1.0 - np.multiply.reduceat(
                    survive, multi_starts
                )
            has_arrival = y_delayed > 0
            saturated = (q_delayed > 0) | (y_delayed > btl_capacity)
            y_safe = np.where(has_arrival, y_delayed, 1.0)
            delivery_rates = np.where(
                saturated & has_arrival,
                np.minimum(own_delayed / y_safe * btl_capacity, btl_capacity),
                np.minimum(own_delayed, btl_capacity),
            )
            if multi_flows and attenuating:
                # Effective bottleneck for multi-hop flows: exclusive prefix
                # survival S_l and the flow's attenuated contribution R_l
                # (min(r * s, C) recursion) along each segment, then the
                # argmin of C_l / S_l picks the reference link (first on
                # ties = most upstream).  All segments are processed as the
                # padded (num_multi, max_len) matrix built above.
                if ragged:
                    # Padding entries keep their initial survive = 1.0.
                    np.place(surv_pad, pad_valid, survive)
                else:
                    surv_pad = survive.reshape(num_multi, max_len)
                np.cumprod(surv_pad[:, :-1], axis=1, out=surv_prefix[:, 1:])
                own_contrib[:, 0] = own_delayed[multi_flows_arr]
                for d in range(1, max_len):
                    np.minimum(
                        own_contrib[:, d - 1] * surv_pad[:, d - 1],
                        caps_pad[:, d - 1],
                        out=own_contrib[:, d],
                    )
                # An upstream link dropping everything (RED at a full
                # buffer) zeroes the survival prefix: no traffic reaches
                # the links behind it, so their effective capacity is
                # infinite rather than a division by zero.
                unreachable = surv_prefix == 0.0
                if unreachable.any():
                    np.divide(
                        caps_pad,
                        np.where(unreachable, 1.0, surv_prefix),
                        out=eff_capacity,
                    )
                    eff_capacity[unreachable] = np.inf
                else:
                    np.divide(caps_pad, surv_prefix, out=eff_capacity)
                choice = np.argmin(eff_capacity, axis=1)
                chosen = pad_idx[multi_rows, choice]
                cap_dyn = multi_caps[chosen]
                y_dyn = fused[s_arr][chosen]
                q_dyn = fused[s_queue][chosen]
                own_dyn = own_contrib[multi_rows, choice]
                has_dyn = y_dyn > 0
                sat_dyn = (q_dyn > 0) | (y_dyn > cap_dyn)
                y_safe_dyn = np.where(has_dyn, y_dyn, 1.0)
                delivery_rates[multi_flows_arr] = np.where(
                    sat_dyn & has_dyn,
                    np.minimum(own_dyn / y_safe_dyn * cap_dyn, cap_dyn),
                    np.minimum(own_dyn, cap_dyn),
                )

            # 3. CCA updates: batched groups, then scalar-fallback flows.
            if churn:
                active_all = (start_times <= t) & (t < stop_times) & ~completed
            else:
                active_all = None if t >= max_start else start_times <= t
            for model, idx, batch, inputs in batch_groups:
                inputs.t = t
                if idx is None:
                    inputs.tau = latency
                    inputs.tau_delayed = tau_delayed
                    inputs.path_loss = p_delayed
                    inputs.delivery_rate = delivery_rates
                    inputs.rate_delayed = own_delayed
                    inputs.active = active_all
                    model.step_all(batch, inputs)
                    rates_all = batch.rate
                else:
                    inputs.tau = latency[idx]
                    inputs.tau_delayed = tau_delayed[idx]
                    inputs.path_loss = p_delayed[idx]
                    inputs.delivery_rate = delivery_rates[idx]
                    inputs.rate_delayed = own_delayed[idx]
                    inputs.active = None if active_all is None else active_all[idx]
                    model.step_all(batch, inputs)
                    rates_all[idx] = batch.rate
            for i in scalar_flows:
                inputs_i = FlowInputs(
                    t=t,
                    dt=dt,
                    tau=float(latency[i]),
                    tau_delayed=float(tau_delayed[i]),
                    path_loss=float(p_delayed[i]),
                    delivery_rate=float(delivery_rates[i]),
                    rate_delayed=float(own_delayed[i]),
                    propagation_rtt=float(propagation_rtt[i]),
                    active=bool(active_all[i]) if churn else t >= start_times[i],
                    literal_xmax=literal_xmax,
                )
                self.models[i].step(states[i], inputs_i)
                rates_all[i] = states[i].rate

            if churn:
                # Finite-size completion: only active flows accumulate
                # delivered volume, and a crossing takes effect (flow
                # masked inactive) from the next step.
                delivered_vol += np.where(active_all, delivery_rates, 0.0) * dt
                newly_done = (delivered_vol >= flow_sizes) & ~completed
                if newly_done.any():
                    completed |= newly_done
                    end_times[newly_done] = t

            # 4. Record (before integrating queues so t=0 is captured).
            if step % record_every == 0 and record_index < num_records:
                rec_time[record_index] = t
                rec_rate[record_index] = rates_all
                rec_delivery[record_index] = delivery_rates
                rec_rtt[record_index] = latency
                rec_link[record_index, :num_queued] = queue_arr
                rec_link[record_index, num_queued : 2 * num_queued] = loss
                rec_link[record_index, 2 * num_queued : 3 * num_queued] = arrival
                rec_link[record_index, 3 * num_queued :] = departure
                for group_pos, (model, idx, batch, _) in enumerate(batch_groups):
                    cols = slice(None) if idx is None else idx
                    rec_inflight[record_index, cols] = batch.inflight
                    rec_cwnd[record_index, cols] = model.congestion_window_all(batch)
                    extras_rec = group_extras[group_pos]
                    for key, values in model.trace_fields_all(batch).items():
                        extras_rec[key][record_index] = values
                for i in scalar_flows:
                    rec_inflight[record_index, i] = states[i].inflight
                    rec_cwnd[record_index, i] = self.models[i].congestion_window(states[i])
                    extras_i = scalar_extras[i]
                    for key, value in self.models[i].trace_fields(states[i]).items():
                        if key in extras_i:
                            extras_i[key][record_index] = value
                record_index += 1

            # 5. Integrate the link queues (Eq. 2).
            queue_arr = queues.step_queue_vec(
                queue_arr, arrival, link_capacity, loss, link_buffer, dt
            )

            # 6. Push histories (queue post-integration, like the scalar path).
            rate_history.advance()[:] = rates_all
            latency_history.advance()[:] = latency
            link_row = link_history.advance()
            link_row[:num_queued] = arrival
            link_row[num_queued : 2 * num_queued] = queue_arr
            link_row[2 * num_queued :] = loss

        # ---------- assemble the per-flow extras dictionaries ----------- #
        extras_per_flow: list[dict[str, np.ndarray]] = [dict() for _ in range(num_flows)]
        for group_pos, (model, idx, batch, _) in enumerate(batch_groups):
            if idx is None:
                flow_ids = range(num_flows)
            elif isinstance(idx, slice):
                flow_ids = range(idx.start, idx.stop)
            else:
                flow_ids = idx
            for col, i in enumerate(flow_ids):
                extras_per_flow[i] = {
                    key: values[:record_index, col]
                    for key, values in group_extras[group_pos].items()
                }
        for i in scalar_flows:
            extras_per_flow[i] = {
                key: values[:record_index] for key, values in scalar_extras[i].items()
            }

        self.runtime = {
            "steps": steps + 1,
            "flows": num_flows,
            "links": num_queued,
            "gathers": rate_history.gathers
            + latency_history.gathers
            + link_history.gathers,
        }
        flow_ends = self._flow_end_list(
            churn,
            num_flows,
            cfg.duration_s,
            completed if churn else None,
            end_times if churn else None,
            stop_times if churn else None,
        )
        return self._build_trace(
            rec_time[:record_index],
            rec_rate[:record_index],
            rec_delivery[:record_index],
            rec_cwnd[:record_index],
            rec_inflight[:record_index],
            rec_rtt[:record_index],
            extras_per_flow,
            {
                idx: rec_link[:record_index, pos]
                for pos, idx in enumerate(queued_links)
            },
            {
                idx: rec_link[:record_index, num_queued + pos]
                for pos, idx in enumerate(queued_links)
            },
            {
                idx: rec_link[:record_index, 2 * num_queued + pos]
                for pos, idx in enumerate(queued_links)
            },
            {
                idx: rec_link[:record_index, 3 * num_queued + pos]
                for pos, idx in enumerate(queued_links)
            },
            flow_starts=start_times,
            flow_ends=flow_ends,
        )

    # ------------------------------------------------------------------ #
    # Scalar reference pipeline (vectorized=False)
    # ------------------------------------------------------------------ #

    def _run_scalar(self) -> Trace:
        net = self.network
        cfg = self.config
        dt = self.dt
        num_flows = net.num_flows
        queued_links = net.queued_link_indices()

        # Per-flow constant bookkeeping.
        propagation_rtt = np.array(
            [net.propagation_rtt(i) for i in range(num_flows)], dtype=float
        )
        bottleneck_of = [net.bottleneck_of(i) for i in range(num_flows)]
        backward_delay = np.array(
            [net.backward_delay(i, bottleneck_of[i]) for i in range(num_flows)]
        )
        start_times, stop_times, flow_sizes, churn = self._flow_lifetimes()
        if churn:
            delivered_vol = np.zeros(num_flows)
            completed = np.zeros(num_flows, dtype=bool)
            end_times = np.full(num_flows, math.nan)

        max_delay = float(np.max(propagation_rtt)) + dt
        rate_history = VectorHistory(num_flows, dt, max_delay)
        latency_history = VectorHistory(num_flows, dt, max_delay, initial=propagation_rtt)
        num_links = net.num_links
        arrival_history = VectorHistory(num_links, dt, max_delay)
        queue_history = VectorHistory(num_links, dt, max_delay)
        loss_history = VectorHistory(num_links, dt, max_delay)

        # Per-flow CCA states.
        states = self._make_states()
        link_states = {idx: _LinkState() for idx in queued_links}

        # Trace recording buffers.
        steps = int(round(cfg.duration_s / dt))
        record_every = max(1, int(round(self.record_interval_s / dt)))
        num_records = steps // record_every + 1
        rec_time = np.zeros(num_records)
        rec_rate = np.zeros((num_records, num_flows))
        rec_delivery = np.zeros((num_records, num_flows))
        rec_cwnd = np.zeros((num_records, num_flows))
        rec_inflight = np.zeros((num_records, num_flows))
        rec_rtt = np.zeros((num_records, num_flows))
        rec_extras: list[dict[str, np.ndarray]] = [
            {
                key: np.zeros(num_records)
                for key in self.models[i].trace_fields(states[i])
            }
            for i in range(num_flows)
        ]
        rec_queue = {idx: np.zeros(num_records) for idx in queued_links}
        rec_loss = {idx: np.zeros(num_records) for idx in queued_links}
        rec_arrival = {idx: np.zeros(num_records) for idx in queued_links}
        rec_departure = {idx: np.zeros(num_records) for idx in queued_links}
        record_index = 0

        users = {idx: net.users(idx) for idx in queued_links}
        user_forward_delays = {
            idx: np.array([net.forward_delay(i, idx) for i in users[idx]])
            for idx in queued_links
        }
        # Per-flow queued links on the path (for composed multi-bottleneck
        # loss) and their backward delays.  Single-queued-link flows keep the
        # direct bottleneck lookup below, bit-identical with the legacy path.
        queued_on_path = {
            i: [idx for idx in net.paths[i].link_indices if net.links[idx].has_queue]
            for i in range(num_flows)
        }
        path_back_delays = {
            i: [net.backward_delay(i, idx) for idx in queued_on_path[i]]
            for i in range(num_flows)
        }
        path_capacities = {
            i: [net.links[idx].capacity_pps for idx in queued_on_path[i]]
            for i in range(num_flows)
        }
        # Upstream attenuation terms of Eq. 1 per (link, user) pair: the
        # queued links m upstream of the link on the user's path, each with
        # the lag the traffic crossed m (``d^f_{i,l} - d^f_{i,m}``) and its
        # capacity — the survival/cap recursion mirrors the vectorized
        # pipeline operation for operation.  First-queued-link pairs carry
        # no terms, keeping the legacy arithmetic bit-identical.
        attenuating = self.attenuate_arrivals
        upstream_terms = {
            idx: [
                [
                    (
                        m,
                        net.forward_delay(i, idx) - net.forward_delay(i, m),
                        net.links[m].capacity_pps,
                    )
                    for m in net.upstream_queued_links(i, idx)
                ]
                for i in users[idx]
            ]
            for idx in queued_links
        }

        queue_lengths = {idx: 0.0 for idx in queued_links}
        current_latency = propagation_rtt.copy()
        delivery_rates = np.zeros(num_flows)

        for step in range(steps + 1):
            t = step * dt

            # 1. Link arrival rates from delayed sending rates (Eq. 1).
            for idx in queued_links:
                link = net.links[idx]
                flow_ids = users[idx]
                delayed = np.array(
                    [
                        rate_history.at_delay(i, d)
                        for i, d in zip(flow_ids, user_forward_delays[idx], strict=True)
                    ]
                )
                if attenuating:
                    for k, terms in enumerate(upstream_terms[idx]):
                        if not terms:
                            continue
                        r = delayed[k]
                        for m, crossing_delay, cap in terms:
                            s = 1.0 - loss_history.at_delay(m, crossing_delay)
                            r = min(r * s, cap)
                        delayed[k] = r
                arrival = float(np.sum(delayed))
                loss = queues.loss_probability(
                    link.discipline,
                    arrival,
                    link.capacity_pps,
                    queue_lengths[idx],
                    link.buffer_pkts,
                    sharpness=cfg.fluid.sigmoid_sharpness,
                    exponent=cfg.fluid.droptail_exponent,
                )
                departure = link.capacity_pps if queue_lengths[idx] > 0 else min(
                    (1.0 - loss) * arrival, link.capacity_pps
                )
                link_states[idx].arrival = arrival
                link_states[idx].loss = loss
                link_states[idx].departure = departure

            # 2. Per-flow observations.
            for i in range(num_flows):
                current_latency[i] = net.path_latency(i, queue_lengths)
            for i in range(num_flows):
                btl = bottleneck_of[i]
                link = net.links[btl]
                d_b = backward_delay[i]
                # Delivery rate of Eq. (17): the flow's delayed sending rate
                # scaled by its share of the capacity if a queue exists.  The
                # numerator is read back one extra step so that it samples the
                # same generation time as the rates inside the delayed arrival
                # rate; a flow's delivery can never exceed the bottleneck
                # capacity.
                own_delayed = rate_history.at_delay(i, propagation_rtt[i] + dt)
                links_on_path = queued_on_path[i]
                if len(links_on_path) == 1 or not attenuating:
                    y_delayed = arrival_history.at_delay(btl, d_b)
                    q_delayed = queue_history.at_delay(btl, d_b)
                    saturated = q_delayed > 0 or y_delayed > link.capacity_pps
                    if saturated and y_delayed > 0:
                        delivery_rates[i] = min(
                            own_delayed / y_delayed * link.capacity_pps,
                            link.capacity_pps,
                        )
                    else:
                        delivery_rates[i] = min(own_delayed, link.capacity_pps)
                else:
                    # Effective bottleneck under attenuation: walk the path
                    # accumulating the exclusive prefix survival S and the
                    # flow's attenuated contribution (min(r * s, C)
                    # recursion); the link with the smallest survival-scaled
                    # capacity C / S is the reference (first on ties), and
                    # Eq. 17 uses the flow's contribution there as the
                    # numerator.  Mirrors the vectorized pipeline exactly.
                    surv_prefix = 1.0
                    contrib = own_delayed
                    best_eff = math.inf
                    best_link = links_on_path[0]
                    best_back = path_back_delays[i][0]
                    best_cap = path_capacities[i][0]
                    best_contrib = contrib
                    for idx, back, cap in zip(
                        links_on_path,
                        path_back_delays[i],
                        path_capacities[i],
                        strict=True,
                    ):
                        # Zero prefix survival = the link is unreachable
                        # (everything dropped upstream): effective capacity
                        # is infinite, mirroring the vectorized pipeline.
                        eff = cap / surv_prefix if surv_prefix > 0.0 else math.inf
                        if eff < best_eff:
                            best_eff = eff
                            best_link, best_back = idx, back
                            best_cap, best_contrib = cap, contrib
                        s = 1.0 - loss_history.at_delay(idx, back)
                        surv_prefix *= s
                        contrib = min(contrib * s, cap)
                    y_delayed = arrival_history.at_delay(best_link, best_back)
                    q_delayed = queue_history.at_delay(best_link, best_back)
                    saturated = q_delayed > 0 or y_delayed > best_cap
                    if saturated and y_delayed > 0:
                        delivery_rates[i] = min(
                            best_contrib / y_delayed * best_cap, best_cap
                        )
                    else:
                        delivery_rates[i] = min(best_contrib, best_cap)
                # Path loss (Eq. 7), observed one backward delay later.  On a
                # multi-bottleneck path the per-link losses compose as
                # 1 - prod_l (1 - p_l), each with its own backward delay.
                if len(links_on_path) == 1:
                    path_loss = loss_history.at_delay(btl, d_b)
                else:
                    survive = 1.0
                    for idx, back in zip(links_on_path, path_back_delays[i], strict=True):
                        survive *= 1.0 - loss_history.at_delay(idx, back)
                    path_loss = 1.0 - survive

                if churn:
                    active_i = bool(
                        start_times[i] <= t
                        and t < stop_times[i]
                        and not completed[i]
                    )
                else:
                    active_i = t >= start_times[i]
                inputs = FlowInputs(
                    t=t,
                    dt=dt,
                    tau=current_latency[i],
                    tau_delayed=latency_history.at_delay(i, propagation_rtt[i]),
                    path_loss=path_loss,
                    delivery_rate=delivery_rates[i],
                    rate_delayed=own_delayed,
                    propagation_rtt=propagation_rtt[i],
                    active=active_i,
                    literal_xmax=cfg.fluid.literal_xmax,
                )
                self.models[i].step(states[i], inputs)
                if churn and active_i:
                    # Same volume/completion arithmetic (and operation
                    # order) as the vectorized pipeline, for bit-identity.
                    delivered_vol[i] += delivery_rates[i] * dt
                    if not completed[i] and delivered_vol[i] >= flow_sizes[i]:
                        completed[i] = True
                        end_times[i] = t

            # 3. Record (before integrating queues so t=0 is captured).
            if step % record_every == 0 and record_index < num_records:
                rec_time[record_index] = t
                for i in range(num_flows):
                    rec_rate[record_index, i] = states[i].rate
                    rec_delivery[record_index, i] = delivery_rates[i]
                    rec_cwnd[record_index, i] = self.models[i].congestion_window(states[i])
                    rec_inflight[record_index, i] = states[i].inflight
                    rec_rtt[record_index, i] = current_latency[i]
                    for key, value in self.models[i].trace_fields(states[i]).items():
                        if key in rec_extras[i]:
                            rec_extras[i][key][record_index] = value
                for idx in queued_links:
                    rec_queue[idx][record_index] = queue_lengths[idx]
                    rec_loss[idx][record_index] = link_states[idx].loss
                    rec_arrival[idx][record_index] = link_states[idx].arrival
                    rec_departure[idx][record_index] = link_states[idx].departure
                record_index += 1

            # 4. Integrate the link queues (Eq. 2).
            for idx in queued_links:
                link = net.links[idx]
                queue_lengths[idx] = queues.step_queue(
                    queue_lengths[idx],
                    link_states[idx].arrival,
                    link.capacity_pps,
                    link_states[idx].loss,
                    link.buffer_pkts,
                    dt,
                )
                link_states[idx].queue = queue_lengths[idx]

            # 5. Push histories.
            rate_history.push(np.array([s.rate for s in states]))
            latency_history.push(current_latency)
            arrivals = np.zeros(num_links)
            qs = np.zeros(num_links)
            losses = np.zeros(num_links)
            for idx in queued_links:
                arrivals[idx] = link_states[idx].arrival
                qs[idx] = queue_lengths[idx]
                losses[idx] = link_states[idx].loss
            arrival_history.push(arrivals)
            queue_history.push(qs)
            loss_history.push(losses)

        self.runtime = {
            "steps": steps + 1,
            "flows": num_flows,
            "links": len(queued_links),
        }
        flow_ends = self._flow_end_list(
            churn,
            num_flows,
            cfg.duration_s,
            completed if churn else None,
            end_times if churn else None,
            stop_times if churn else None,
        )
        return self._build_trace(
            rec_time[:record_index],
            rec_rate[:record_index],
            rec_delivery[:record_index],
            rec_cwnd[:record_index],
            rec_inflight[:record_index],
            rec_rtt[:record_index],
            [{k: v[:record_index] for k, v in extras.items()} for extras in rec_extras],
            {idx: rec_queue[idx][:record_index] for idx in queued_links},
            {idx: rec_loss[idx][:record_index] for idx in queued_links},
            {idx: rec_arrival[idx][:record_index] for idx in queued_links},
            {idx: rec_departure[idx][:record_index] for idx in queued_links},
            flow_starts=start_times,
            flow_ends=flow_ends,
        )

    # ------------------------------------------------------------------ #
    # Trace assembly
    # ------------------------------------------------------------------ #

    def _build_trace(
        self,
        time: np.ndarray,
        rate: np.ndarray,
        delivery: np.ndarray,
        cwnd: np.ndarray,
        inflight: np.ndarray,
        rtt: np.ndarray,
        extras: list[dict[str, np.ndarray]],
        queue: dict[int, np.ndarray],
        loss: dict[int, np.ndarray],
        arrival: dict[int, np.ndarray],
        departure: dict[int, np.ndarray],
        flow_starts: np.ndarray | None = None,
        flow_ends: list[float | None] | None = None,
    ) -> Trace:
        flows = [
            FlowTrace(
                cca=self.config.flows[i].cca,
                rate=rate[:, i],
                delivery_rate=delivery[:, i],
                cwnd=cwnd[:, i],
                inflight=inflight[:, i],
                rtt=rtt[:, i],
                extras=extras[i],
                start_time_s=0.0 if flow_starts is None else float(flow_starts[i]),
                end_time_s=None if flow_ends is None else flow_ends[i],
            )
            for i in range(self.network.num_flows)
        ]
        links = []
        for idx in sorted(queue):
            link = self.network.links[idx]
            buffer_pkts = link.buffer_pkts if math.isfinite(link.buffer_pkts) else math.inf
            links.append(
                LinkTrace(
                    name=link.name or f"link-{idx}",
                    capacity_pps=link.capacity_pps,
                    buffer_pkts=buffer_pkts,
                    queue=queue[idx],
                    loss_prob=loss[idx],
                    arrival_rate=arrival[idx],
                    departure_rate=departure[idx],
                )
            )
        return Trace(time=time, flows=flows, links=links, substrate="fluid")


def simulate(
    config: ScenarioConfig,
    record_interval_s: float = 1e-3,
    vectorized: bool = True,
    attenuate_arrivals: bool = True,
) -> Trace:
    """Convenience wrapper: build a :class:`FluidSimulator` and run it."""
    return FluidSimulator(
        config,
        record_interval_s=record_interval_s,
        vectorized=vectorized,
        attenuate_arrivals=attenuate_arrivals,
    ).run()


def simulate_many(
    configs: Sequence[ScenarioConfig],
    record_interval_s: float = 1e-3,
) -> list[Trace]:
    """Integrate many *independent* scenarios in lockstep as one batched system.

    The aggregate-validation figures (Figs. 6-10, 13-17) integrate dozens of
    scenarios that share the integration step and duration but differ in CCA
    mix, buffer size and queue discipline.  The scenarios never interact, so
    their fluid models can be stacked into a single block-diagonal system:
    one wide flow population, one link set containing every scenario's
    bottleneck, and a flow→link incidence that keeps each scenario on its
    own links.  Every numpy expression of the vectorized pipeline then
    amortises its per-operation overhead over the whole batch, which is
    where the bulk of the sweep speedup comes from on a single core.

    Each returned trace is numerically identical to running its scenario
    alone through :func:`simulate` (the per-flow arithmetic is element-wise
    and zero padding is exact).

    All scenarios must share ``dt``, ``duration_s`` and the global fluid
    numerics (sigmoid sharpness, drop-tail exponent, ``literal_xmax``);
    per-model parameters may differ freely because model batches group by
    ``batch_key``.
    """
    configs = list(configs)
    if not configs:
        return []
    if len(configs) == 1:
        return [simulate(configs[0], record_interval_s=record_interval_s)]
    if TELEMETRY.enabled:
        TELEMETRY.count("fluid.lockstep_batches")
        TELEMETRY.count("fluid.lockstep_scenarios", len(configs))
    first = configs[0]
    for cfg in configs[1:]:
        if cfg.fluid.dt != first.fluid.dt:
            raise ValueError("batched scenarios must share the integration step")
        if cfg.duration_s != first.duration_s:
            raise ValueError("batched scenarios must share the duration")
        for field_name in ("sigmoid_sharpness", "droptail_exponent", "literal_xmax"):
            if getattr(cfg.fluid, field_name) != getattr(first.fluid, field_name):
                raise ValueError(
                    f"batched scenarios must share fluid numerics ({field_name})"
                )

    combined_links: list = []
    combined_paths: list[Path] = []
    combined_flows: list = []
    combined_entries: list[FlowArrival] = []
    any_schedule = any(cfg.schedule is not None for cfg in configs)
    models: dict[int, FluidCCA] = {}
    initial_states: list = []
    flow_bounds = [0]
    queued_counts: list[int] = []
    for cfg in configs:
        sub = FluidSimulator(cfg, record_interval_s=record_interval_s)
        net = sub.network
        offset = len(combined_links)
        combined_links.extend(net.links)
        queued_counts.append(len(net.queued_link_indices()))
        if any_schedule:
            # Concatenate each scenario's materialised schedule; a
            # schedule-free scenario contributes plain start-only entries,
            # so its flows keep the legacy start-time masking.
            entries = cfg.flow_schedule()
            if entries is None:
                entries = tuple(
                    FlowArrival(start_time_s=f.start_time_s) for f in cfg.flows
                )
            combined_entries.extend(entries)
        for path in net.paths:
            combined_paths.append(
                Path(
                    link_indices=tuple(offset + i for i in path.link_indices),
                    return_delay_s=path.return_delay_s,
                )
            )
        for i in range(net.num_flows):
            models[len(combined_flows)] = sub.models[i]
            combined_flows.append(cfg.flows[i])
            # States are built with the scenario-local flow index and count:
            # e.g. BBRv1 desynchronises gain cycles by ``i % 6`` and BBRv2
            # spreads its wall-clock period by ``i / N`` *within* a scenario.
            initial_states.append(
                sub.models[i].initial_state(i, net.num_flows, net, cfg.fluid)
            )
        flow_bounds.append(len(combined_flows))

    network = Network(combined_links, combined_paths)
    # The merged scenario only carries the flows and the global fluid
    # numerics; the combined network (which already encodes every
    # scenario's topology) is passed explicitly, so any per-scenario
    # topology must not survive into the merged config (its path count
    # would not match the combined flow population).
    merged_config = dataclasses.replace(
        first, flows=tuple(combined_flows), topology=None, schedule=None
    )
    combined = FluidSimulator(
        merged_config,
        models=models,
        record_interval_s=record_interval_s,
        vectorized=True,
        network=network,
        initial_states=initial_states,
        schedule_entries=combined_entries if any_schedule else None,
    ).run()

    # Split the combined trace back into one trace per scenario.  Links are
    # emitted by global index, and each scenario's links form one contiguous
    # block, so its queued links are a contiguous run in the combined list.
    traces: list[Trace] = []
    link_pos = 0
    for j in range(len(configs)):
        flows = combined.flows[flow_bounds[j] : flow_bounds[j + 1]]
        links = combined.links[link_pos : link_pos + queued_counts[j]]
        link_pos += queued_counts[j]
        traces.append(
            Trace(time=combined.time, flows=flows, links=links, substrate="fluid")
        )
    return traces
