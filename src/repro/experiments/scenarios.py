"""Canonical scenarios of the paper's evaluation (Section 4.1).

Two families of scenarios are used throughout the paper:

* **Trace validation** (Figs. 1, 2, 4, 5, 11, 12): a single sender (or one
  sender per CCA) on a 100 Mbps bottleneck with 10 ms propagation delay, a
  5.6 ms access link and a 1 BDP buffer.
* **Aggregate validation** (Figs. 6-10 and 13-17): N = 10 senders, 100 Mbps,
  bottleneck delay 10 ms (5 ms for the short-RTT appendix), total RTTs spread
  over 30-40 ms (10-20 ms), buffer sizes swept from 1 to 7 BDP, drop-tail and
  RED queueing, and seven CCA mixes (four homogeneous, three heterogeneous
  pairings with five senders each).

Beyond the paper, the **topology family** (:func:`parking_lot_scenario`,
:func:`multi_dumbbell_scenario`, dispatched by :func:`topology_scenario`)
runs the same CCA mixes over the multi-bottleneck topologies the paper
lists as future work, on both substrates.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Sequence

from .. import topology as topology_builders
from ..config import (
    ARRIVAL_PROCESSES,
    QUEUE_DISCIPLINES,
    SIZE_DISTRIBUTIONS,
    FlowConfig,
    FlowSchedule,
    FluidParams,
    ScenarioConfig,
    dumbbell_scenario,
    spread_access_delays,
)

#: The seven CCA mixes of Figs. 6-10 (keys are the paper's legend labels).
CCA_MIXES: dict[str, tuple[str, ...]] = {
    "BBRv1": ("bbr1",) * 10,
    "BBRv1/BBRv2": ("bbr1",) * 5 + ("bbr2",) * 5,
    "BBRv1/CUBIC": ("bbr1",) * 5 + ("cubic",) * 5,
    "BBRv1/RENO": ("bbr1",) * 5 + ("reno",) * 5,
    "BBRv2": ("bbr2",) * 10,
    "BBRv2/CUBIC": ("bbr2",) * 5 + ("cubic",) * 5,
    "BBRv2/RENO": ("bbr2",) * 5 + ("reno",) * 5,
}

#: Buffer sizes (in BDP) swept by the aggregate validation figures.
BUFFER_SWEEP_BDP: tuple[float, ...] = (1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0)

#: Queue disciplines compared throughout the evaluation.
DISCIPLINES: tuple[str, ...] = ("droptail", "red")

#: Default integration step used for the aggregate sweeps (coarser than the
#: trace-validation default; the aggregate metrics are insensitive to it).
SWEEP_DT: float = 2.5e-4

#: Metrics of the aggregate figures, in paper order (re-exported by
#: :mod:`repro.experiments.figures`).
AGGREGATE_FIGURES: dict[str, str] = {
    "fig06_fairness": "jain_fairness",
    "fig07_loss": "loss_percent",
    "fig08_queuing": "buffer_occupancy_percent",
    "fig09_utilization": "utilization_percent",
    "fig10_jitter": "jitter_ms",
}

#: Reduced sweep used by default so the benchmark suite stays tractable;
#: pass ``buffers_bdp=BUFFER_SWEEP_BDP`` for the paper's full grid.
DEFAULT_SWEEP_BUFFERS: tuple[float, ...] = (1.0, 4.0, 7.0)

#: Default phase-diagram axes: the paper's two BBR versions over a
#: buffer x RTT x flow-count grid spanning the shallow-to-deep regimes
#: (re-exported by :mod:`repro.experiments.phase` as its ``DEFAULT_*``).
PHASE_VERSIONS: tuple[str, ...] = ("bbr1", "bbr2")
PHASE_FLOW_COUNTS: tuple[int, ...] = (2, 4, 10)
PHASE_RTTS_MS: tuple[float, ...] = (20.0, 35.0, 50.0)
PHASE_BUFFERS_BDP: tuple[float, ...] = (0.25, 0.5, 1.0, 2.0, 4.0, 8.0)


def trace_validation_scenario(
    cca: str,
    discipline: str = "droptail",
    duration_s: float = 30.0,
    buffer_bdp: float = 1.0,
    dt: float = 1e-4,
) -> ScenarioConfig:
    """Single-flow trace-validation scenario of Section 4.2 (Figs. 4, 5, 11, 12).

    One sender, 100 Mbps bottleneck with 10 ms delay, 5.6 ms access link
    (i.e. a 31.2 ms propagation RTT) and a 1 BDP drop-tail or RED buffer.
    As in the aggregate scenarios, the loss-based initial window is set to
    the BDP: the fluid models have no slow-start phase (Insight 9), so the
    flow starts in the state slow start would leave behind — otherwise a
    short trace spends most of its duration on CUBIC/Reno window regrowth
    that the real protocol performs in a few hundred milliseconds.
    """
    rtt_s = 0.0312
    bdp_pkts = 100.0e6 / (1500 * 8) * rtt_s
    return dumbbell_scenario(
        [cca],
        capacity_mbps=100.0,
        bottleneck_delay_s=0.010,
        rtt_range_s=(rtt_s, rtt_s),
        buffer_bdp=buffer_bdp,
        discipline=discipline,
        duration_s=duration_s,
        fluid=FluidParams(dt=dt, loss_based_init_window_pkts=max(10.0, bdp_pkts)),
    )


def competition_scenario(
    ccas: tuple[str, str] = ("reno", "bbr1"),
    discipline: str = "droptail",
    duration_s: float = 10.0,
    buffer_bdp: float = 1.0,
    dt: float = 1e-4,
) -> ScenarioConfig:
    """Two-flow competition scenario of Fig. 1 (one Reno flow vs. one BBRv1 flow)."""
    return dumbbell_scenario(
        list(ccas),
        capacity_mbps=100.0,
        bottleneck_delay_s=0.010,
        rtt_range_s=(0.030, 0.034),
        buffer_bdp=buffer_bdp,
        discipline=discipline,
        duration_s=duration_s,
        fluid=FluidParams(dt=dt),
    )


def aggregate_scenario(
    mix: str,
    buffer_bdp: float,
    discipline: str,
    short_rtt: bool = False,
    duration_s: float = 5.0,
    dt: float = SWEEP_DT,
    whi_init_bdp: float | None = None,
    seed: int = 1,
) -> ScenarioConfig:
    """Aggregate-validation scenario of Section 4.3 (Figs. 6-10) / Appendix C.

    ``mix`` is one of the :data:`CCA_MIXES` keys.  ``short_rtt`` selects the
    Appendix C variant (5 ms bottleneck delay, 10-20 ms RTTs).  The per-flow
    loss-based initial window is set to the fair-share BDP so that the
    (unmodelled) slow-start phase does not dominate the 5-second average.
    ``seed`` feeds the packet emulator's randomness (queue RNG and per-flow
    CCA streams); multi-seed campaigns replicate each point across seeds
    (the paper averages repeated randomized mininet runs the same way).
    """
    if mix not in CCA_MIXES:
        raise ValueError(f"unknown CCA mix {mix!r}; expected one of {sorted(CCA_MIXES)}")
    ccas = CCA_MIXES[mix]
    bottleneck_delay = 0.005 if short_rtt else 0.010
    rtt_range_s = (0.010, 0.020) if short_rtt else (0.030, 0.040)
    mean_rtt = sum(rtt_range_s) / 2.0
    fair_share_pkts = 100.0e6 / (1500 * 8) * mean_rtt / len(ccas)
    fluid = FluidParams(
        dt=dt,
        loss_based_init_window_pkts=max(10.0, fair_share_pkts),
        whi_init_bdp=whi_init_bdp,
    )
    return dumbbell_scenario(
        ccas,
        capacity_mbps=100.0,
        bottleneck_delay_s=bottleneck_delay,
        rtt_range_s=rtt_range_s,
        buffer_bdp=buffer_bdp,
        discipline=discipline,
        duration_s=duration_s,
        fluid=fluid,
        seed=seed,
    )


def churn_scenario(
    mix: str,
    num_flows: int = 100,
    arrivals: str = "poisson",
    load: float = 0.5,
    size_dist: str = "pareto",
    mean_size_packets: float = 1000.0,
    pareto_shape: float = 1.5,
    min_size_packets: float = 10.0,
    max_size_packets: float | None = None,
    onoff_period_s: float = 2.0,
    buffer_bdp: float = 1.0,
    discipline: str = "droptail",
    short_rtt: bool = False,
    duration_s: float = 30.0,
    dt: float = SWEEP_DT,
    whi_init_bdp: float | None = None,
    seed: int = 1,
) -> ScenarioConfig:
    """A dumbbell scenario with a time-varying flow population (churn).

    The :data:`CCA_MIXES` pattern ``mix`` is repeated round-robin across
    ``num_flows`` flows, and a :class:`~repro.config.FlowSchedule` drives
    their lifetimes:

    * ``arrivals="poisson"``/``"staggered"``: flows arrive at the rate that
      offers ``load`` of the bottleneck capacity — ``lambda = load * C /
      E[size]`` flows per second (Poisson draws exponential inter-arrivals;
      staggered spaces them deterministically at ``1/lambda``).
    * ``arrivals="onoff"``: each source cycles through an
      ``onoff_period_s``-second period with duty cycle ``load`` (on for
      ``load * period``), phases spread evenly across sources.

    ``size_dist`` picks the flow sizes: ``"pareto"`` is the heavy-tailed
    mice-and-elephants workload (bounded Pareto on ``[min_size_packets,
    max_size_packets]``; the bound defaults to ``100 * mean_size_packets``),
    ``"fixed"`` sends exactly ``mean_size_packets``, ``"infinite"`` keeps
    flows long-lived (the natural choice for on/off sources).
    ``mean_size_packets`` anchors the offered-load arithmetic in every
    case.  Everything else (capacity, RTT spread, buffers, fair-share
    initial window) matches :func:`aggregate_scenario`.
    """
    if mix not in CCA_MIXES:
        raise ValueError(f"unknown CCA mix {mix!r}; expected one of {sorted(CCA_MIXES)}")
    if num_flows < 1:
        raise ValueError("num_flows must be positive")
    if arrivals not in ARRIVAL_PROCESSES:
        raise ValueError(
            f"unknown arrival process {arrivals!r}; expected one of {ARRIVAL_PROCESSES}"
        )
    if size_dist not in SIZE_DISTRIBUTIONS:
        raise ValueError(
            f"unknown size distribution {size_dist!r}; "
            f"expected one of {SIZE_DISTRIBUTIONS}"
        )
    if load <= 0:
        raise ValueError("load must be positive")
    if arrivals == "onoff" and load >= 1.0:
        raise ValueError("on/off sources need a duty cycle load < 1")
    if mean_size_packets < 1:
        raise ValueError("mean_size_packets must be at least one packet")
    pattern = CCA_MIXES[mix]
    ccas = [pattern[i % len(pattern)] for i in range(num_flows)]
    size_kwargs: dict = {"size_dist": size_dist}
    if size_dist == "fixed":
        size_kwargs["mean_size_packets"] = mean_size_packets
    elif size_dist == "pareto":
        size_kwargs.update(
            pareto_shape=pareto_shape,
            min_size_packets=min_size_packets,
            max_size_packets=(
                max_size_packets
                if max_size_packets is not None
                else 100.0 * mean_size_packets
            ),
        )
    if arrivals == "onoff":
        schedule = FlowSchedule(
            arrivals="onoff",
            on_time_s=load * onoff_period_s,
            off_time_s=(1.0 - load) * onoff_period_s,
            **size_kwargs,
        )
    else:
        # Offered load: lambda * E[size] = load * C, with E[size] taken from
        # the actual size distribution (mean_size_packets anchors "infinite",
        # whose flows never complete but still arrive at the nominal rate).
        capacity_pps = 100.0e6 / (1500 * 8)
        probe = FlowSchedule(arrivals="staggered", **size_kwargs)
        mean_size = (
            mean_size_packets
            if size_dist == "infinite"
            else probe.mean_flow_size_packets()
        )
        arrival_rate = load * capacity_pps / mean_size
        if arrivals == "poisson":
            schedule = FlowSchedule(
                arrivals="poisson", arrival_rate_per_s=arrival_rate, **size_kwargs
            )
        else:
            schedule = FlowSchedule(
                arrivals="staggered",
                arrival_spacing_s=1.0 / arrival_rate,
                **size_kwargs,
            )
    bottleneck_delay = 0.005 if short_rtt else 0.010
    rtt_range_s = (0.010, 0.020) if short_rtt else (0.030, 0.040)
    config = dumbbell_scenario(
        ccas,
        capacity_mbps=100.0,
        bottleneck_delay_s=bottleneck_delay,
        rtt_range_s=rtt_range_s,
        buffer_bdp=buffer_bdp,
        discipline=discipline,
        duration_s=duration_s,
        fluid=_sweep_fluid(num_flows, rtt_range_s, dt, whi_init_bdp),
        seed=seed,
    )
    return dataclasses.replace(config, schedule=schedule)


#: Topology presets accepted by :func:`topology_scenario`, the sweep's
#: topology axis and the ``repro-bbr topology`` CLI command.
TOPOLOGY_PRESETS = topology_builders.TOPOLOGY_PRESETS


def _sweep_fluid(
    num_flows: int,
    rtt_range_s: tuple[float, float],
    dt: float,
    whi_init_bdp: float | None,
    capacity_mbps: float = 100.0,
) -> FluidParams:
    """Fluid numerics matching :func:`aggregate_scenario` (fair-share window)."""
    mean_rtt = sum(rtt_range_s) / 2.0
    fair_share_pkts = capacity_mbps * 1e6 / (1500 * 8) * mean_rtt / num_flows
    return FluidParams(
        dt=dt,
        loss_based_init_window_pkts=max(10.0, fair_share_pkts),
        whi_init_bdp=whi_init_bdp,
    )


def parking_lot_scenario(
    mix: str = "BBRv1",
    hops: int = 3,
    cross_flows: int = 1,
    cross_cca: str = "cubic",
    capacity_mbps: float | Sequence[float] = 100.0,
    path_delay_s: float = 0.010,
    hop_delays_s: Sequence[float] | None = None,
    rtt_range_s: tuple[float, float] = (0.030, 0.040),
    buffer_bdp: float = 1.0,
    discipline: str | Sequence[str] = "droptail",
    duration_s: float = 5.0,
    dt: float = SWEEP_DT,
    whi_init_bdp: float | None = None,
    seed: int = 1,
) -> ScenarioConfig:
    """Parking-lot scenario: a ``hops``-link chain with per-hop cross traffic.

    The :data:`CCA_MIXES` entry ``mix`` supplies the *long* flows, which
    traverse every hop; each hop additionally carries ``cross_flows``
    single-hop ``cross_cca`` flows.  ``path_delay_s`` is the total one-way
    propagation delay of the chain (split evenly across hops), so long-flow
    RTTs cover the same 30-40 ms range as the paper's dumbbell scenarios
    and results are comparable hop-count to hop-count.  Buffers are
    ``buffer_bdp`` reference-BDP multiples at every hop.

    The chain may be heterogeneous: ``capacity_mbps`` and ``discipline``
    accept per-hop sequences, and ``hop_delays_s`` replaces the even
    ``path_delay_s`` split with explicit per-hop delays.  The fair-share
    initial window and the reference BDP follow the smallest-capacity hop.
    """
    if mix not in CCA_MIXES:
        raise ValueError(f"unknown CCA mix {mix!r}; expected one of {sorted(CCA_MIXES)}")
    if hops < 1:
        raise ValueError("hops must be positive")
    long_ccas = CCA_MIXES[mix]
    if hop_delays_s is None:
        hop_delays = [path_delay_s / hops] * hops
        path_delay = path_delay_s
    else:
        hop_delays = [float(d) for d in hop_delays_s]
        path_delay = sum(hop_delays)
    topo = topology_builders.parking_lot(
        hops,
        cross_flows=cross_flows,
        long_flows=len(long_ccas),
        capacity_mbps=capacity_mbps,
        hop_delay_s=hop_delays,
        buffer_bdp=buffer_bdp,
        discipline=discipline,
    )
    # Long flows spread their RTTs over the paper's range given the full
    # chain delay; each hop's cross flows spread over the same range given
    # that hop's delay.
    flows = [
        FlowConfig(cca=cca, access_delay_s=delay)
        for cca, delay in zip(
            long_ccas,
            spread_access_delays(len(long_ccas), rtt_range_s, path_delay),
            strict=True,
        )
    ]
    if cross_flows:
        for h in range(hops):
            cross_delays = spread_access_delays(cross_flows, rtt_range_s, hop_delays[h])
            flows.extend(
                FlowConfig(cca=cross_cca, access_delay_s=delay) for delay in cross_delays
            )
    reference_mbps = topo.reference_link.capacity_mbps
    return ScenarioConfig(
        bottleneck=None,
        flows=tuple(flows),
        duration_s=duration_s,
        fluid=_sweep_fluid(len(flows), rtt_range_s, dt, whi_init_bdp, reference_mbps),
        seed=seed,
        topology=topo,
    )


def multi_dumbbell_scenario(
    mix: str = "BBRv1",
    dumbbells: int = 2,
    span_flows: int = 1,
    span_cca: str = "cubic",
    capacity_mbps: float | Sequence[float] = 100.0,
    bottleneck_delay_s: float | Sequence[float] = 0.010,
    rtt_range_s: tuple[float, float] = (0.030, 0.040),
    buffer_bdp: float = 1.0,
    discipline: str | Sequence[str] = "droptail",
    duration_s: float = 5.0,
    dt: float = SWEEP_DT,
    whi_init_bdp: float | None = None,
    seed: int = 1,
) -> ScenarioConfig:
    """Multi-dumbbell scenario: disjoint bottlenecks coupled by spanning flows.

    The :data:`CCA_MIXES` entry ``mix`` is dealt round-robin across the
    ``dumbbells`` bottlenecks (so heterogeneous mixes stay heterogeneous on
    every dumbbell); ``span_flows`` additional ``span_cca`` flows traverse
    every bottleneck in series, carrying congestion from one dumbbell into
    the next.  ``capacity_mbps``, ``bottleneck_delay_s`` and ``discipline``
    accept per-dumbbell sequences for heterogeneous grids; the fair-share
    initial window and the reference BDP follow the smallest capacity.
    """
    if mix not in CCA_MIXES:
        raise ValueError(f"unknown CCA mix {mix!r}; expected one of {sorted(CCA_MIXES)}")
    if dumbbells < 1:
        raise ValueError("dumbbells must be positive")
    ccas = CCA_MIXES[mix]
    local_ccas = [list(ccas[j::dumbbells]) for j in range(dumbbells)]
    if isinstance(bottleneck_delay_s, (int, float)):
        delays_per = [float(bottleneck_delay_s)] * dumbbells
        span_path_delay = float(bottleneck_delay_s) * dumbbells
    else:
        delays_per = [float(d) for d in bottleneck_delay_s]
        span_path_delay = sum(delays_per)
    topo = topology_builders.multi_dumbbell(
        dumbbells,
        flows_per_dumbbell=[len(group) for group in local_ccas],
        span_flows=span_flows,
        capacity_mbps=capacity_mbps,
        delay_s=delays_per,
        buffer_bdp=buffer_bdp,
        discipline=discipline,
    )
    flows: list[FlowConfig] = []
    for j, group in enumerate(local_ccas):
        if not group:
            # More dumbbells than mix flows: the surplus dumbbells carry
            # only spanning traffic (the builder permits 0 local flows).
            continue
        delays = spread_access_delays(len(group), rtt_range_s, delays_per[j])
        flows.extend(
            FlowConfig(cca=cca, access_delay_s=delay)
            for cca, delay in zip(group, delays, strict=True)
        )
    if span_flows:
        # A spanning flow's propagation floor is the whole chain of
        # bottlenecks; keep the requested RTT spread but shift the range up
        # when the floor exceeds it (e.g. 4+ dumbbells at 10 ms each).
        low, high = rtt_range_s
        floor = 2.0 * span_path_delay
        if low < floor:
            low, high = floor, floor + (high - low)
        span_delays = spread_access_delays(span_flows, (low, high), span_path_delay)
        flows.extend(
            FlowConfig(cca=span_cca, access_delay_s=delay) for delay in span_delays
        )
    return ScenarioConfig(
        bottleneck=None,
        flows=tuple(flows),
        duration_s=duration_s,
        fluid=_sweep_fluid(
            len(flows), rtt_range_s, dt, whi_init_bdp,
            topo.reference_link.capacity_mbps,
        ),
        seed=seed,
        topology=topo,
    )


def validate_hop_axis(
    hops: int,
    hop_capacities: Sequence[float] | None = None,
    hop_delays: Sequence[float] | None = None,
    hop_disciplines: Sequence[str] | None = None,
    preset: str | None = None,
) -> tuple[tuple[float, ...] | None, tuple[float, ...] | None, tuple[str, ...] | None]:
    """Validate heterogeneous per-hop axis values against the hop count.

    Returns the normalised ``(capacities, delays, disciplines)`` tuples (or
    ``None`` where unset).  Raises a clear :class:`ValueError` on a length
    mismatch, a non-positive capacity/delay, an unknown discipline, or a
    per-hop list combined with the one-link ``"dumbbell"`` preset — before
    any deep numpy machinery can trip over the malformed shape.
    """
    axes = (
        ("hop_capacities", hop_capacities),
        ("hop_delays", hop_delays),
        ("hop_disciplines", hop_disciplines),
    )
    if preset == "dumbbell":
        for name, values in axes:
            if values is not None:
                raise ValueError(
                    f"{name} only applies to multi-bottleneck presets "
                    f"({', '.join(p for p in TOPOLOGY_PRESETS if p != 'dumbbell')}), "
                    "not to the one-link dumbbell"
                )
    for name, values in axes:
        if values is not None and len(values) != hops:
            raise ValueError(
                f"{name} lists {len(values)} values but hops={hops}; "
                "provide exactly one value per hop"
            )
    capacities = delays = None
    if hop_capacities is not None:
        capacities = tuple(float(c) for c in hop_capacities)
        if any(c <= 0 for c in capacities):
            raise ValueError(f"hop_capacities must be positive, got {capacities}")
    if hop_delays is not None:
        delays = tuple(float(d) for d in hop_delays)
        if any(d <= 0 for d in delays):
            raise ValueError(f"hop_delays must be positive, got {delays}")
    disciplines = None
    if hop_disciplines is not None:
        disciplines = tuple(str(d) for d in hop_disciplines)
        unknown = [d for d in disciplines if d not in QUEUE_DISCIPLINES]
        if unknown:
            raise ValueError(
                f"unknown hop_disciplines {unknown}; expected one of {QUEUE_DISCIPLINES}"
            )
    return capacities, delays, disciplines


def topology_scenario(
    preset: str,
    mix: str = "BBRv1",
    hops: int = 3,
    cross_flows: int = 1,
    cross_cca: str = "cubic",
    buffer_bdp: float = 1.0,
    discipline: str = "droptail",
    duration_s: float = 5.0,
    dt: float = SWEEP_DT,
    whi_init_bdp: float | None = None,
    seed: int = 1,
    hop_capacities: Sequence[float] | None = None,
    hop_delays: Sequence[float] | None = None,
    hop_disciplines: Sequence[str] | None = None,
) -> ScenarioConfig:
    """Build a scenario from a topology preset name (the sweep/CLI axis).

    ``hops`` is the chain length for ``"parking-lot"`` and the dumbbell
    count for ``"multi-dumbbell"``; ``cross_flows`` is the per-hop cross
    traffic for the former and the spanning-flow count for the latter.
    ``"dumbbell"`` ignores both and reproduces :func:`aggregate_scenario`.

    ``hop_capacities`` (Mbps), ``hop_delays`` (seconds) and
    ``hop_disciplines`` open the heterogeneous axis: one value per hop /
    dumbbell, validated up front (see :func:`validate_hop_axis`).
    """
    hop_capacities, hop_delays, hop_disciplines = validate_hop_axis(
        hops, hop_capacities, hop_delays, hop_disciplines, preset=preset
    )
    if preset == "dumbbell":
        return aggregate_scenario(
            mix,
            buffer_bdp=buffer_bdp,
            discipline=discipline,
            duration_s=duration_s,
            dt=dt,
            whi_init_bdp=whi_init_bdp,
            seed=seed,
        )
    if preset == "parking-lot":
        return parking_lot_scenario(
            mix,
            hops=hops,
            cross_flows=cross_flows,
            cross_cca=cross_cca,
            capacity_mbps=hop_capacities if hop_capacities is not None else 100.0,
            hop_delays_s=hop_delays,
            buffer_bdp=buffer_bdp,
            discipline=hop_disciplines if hop_disciplines is not None else discipline,
            duration_s=duration_s,
            dt=dt,
            whi_init_bdp=whi_init_bdp,
            seed=seed,
        )
    if preset == "multi-dumbbell":
        return multi_dumbbell_scenario(
            mix,
            dumbbells=hops,
            span_flows=cross_flows,
            span_cca=cross_cca,
            capacity_mbps=hop_capacities if hop_capacities is not None else 100.0,
            bottleneck_delay_s=hop_delays if hop_delays is not None else 0.010,
            buffer_bdp=buffer_bdp,
            discipline=hop_disciplines if hop_disciplines is not None else discipline,
            duration_s=duration_s,
            dt=dt,
            whi_init_bdp=whi_init_bdp,
            seed=seed,
        )
    raise ValueError(
        f"unknown topology preset {preset!r}; expected one of {TOPOLOGY_PRESETS}"
    )
