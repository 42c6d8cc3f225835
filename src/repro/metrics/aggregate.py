"""Aggregate performance metrics of the paper's evaluation (Figs. 7-10, 14-17).

Every metric takes a :class:`~repro.metrics.traces.Trace` — produced either
by the fluid model or by the packet-level emulator — so that both substrates
are evaluated by exactly the same code.

* **loss** (Fig. 7): fraction of traffic arriving at the bottleneck that is
  dropped, in percent.
* **buffer occupancy** (Fig. 8): time-average queue length as a share of the
  buffer, in percent.
* **utilization** (Fig. 9): time-average bottleneck departure rate as a
  share of capacity, in percent.
* **jitter** (Fig. 10): mean absolute RTT difference between consecutive
  (virtual) packets, in milliseconds.  The fluid model has no packets, so —
  exactly as the paper does — the RTT series is sampled at the virtual
  packet rate ``g * N / C`` and the mean absolute difference of consecutive
  samples is reported.

Importing this module loads no numpy: the metric containers and the
single-replica summary are plain Python, so the store and the sweep planner
can read and summarise persisted rows without it.  The functions that
compute from a :class:`~repro.metrics.traces.Trace` import numpy and the
trace helpers when first called.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from collections.abc import Sequence
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .traces import Trace


def loss_percent(trace: Trace) -> float:
    """Bottleneck loss rate in percent of arriving traffic (Fig. 7)."""
    return 100.0 * trace.bottleneck().loss_fraction()


def buffer_occupancy_percent(trace: Trace) -> float:
    """Mean bottleneck queue occupancy in percent of the buffer (Fig. 8)."""
    return 100.0 * trace.bottleneck().mean_occupancy()


def utilization_percent(trace: Trace) -> float:
    """Mean bottleneck utilization in percent of capacity (Fig. 9)."""
    return min(100.0, 100.0 * trace.bottleneck().utilization())


def jitter_ms(trace: Trace, packet_size_factor: float = 1.0) -> float:
    """Mean packet-delay variation in milliseconds (Fig. 10).

    The RTT of each flow is sampled every ``packet_size_factor * N / C``
    seconds (the virtual inter-packet time of the aggregate) and the mean
    absolute difference of consecutive samples, averaged over flows, is
    returned.
    """
    if packet_size_factor <= 0:
        raise ValueError("packet_size_factor must be positive")
    import numpy as np

    from .traces import resample

    bottleneck = trace.bottleneck()
    interval = packet_size_factor * trace.num_flows / bottleneck.capacity_pps
    if trace.duration <= 2 * interval:
        return 0.0
    sample_times = np.arange(trace.time[0], trace.time[-1], interval)
    jitters = []
    for flow in trace.flows:
        rtt = resample(trace.time, flow.rtt, sample_times)
        if len(rtt) > 1:
            jitters.append(float(np.mean(np.abs(np.diff(rtt)))))
    if not jitters:
        return 0.0
    return 1000.0 * float(np.mean(jitters))


@dataclass(frozen=True, eq=False)
class AggregateMetrics:
    """The five aggregate metrics the paper reports for each scenario.

    The churn fields extend them for time-varying flow populations
    (:class:`~repro.config.FlowSchedule` workloads): flow-completion-time
    percentiles over the flows that departed within the run, Jain fairness
    over the *active* flow set (time-weighted), and the time-weighted mean
    number of concurrently active flows.  FCT fields are NaN for runs in
    which no flow completed (in particular every long-lived-flow run), so
    schedule-free results keep their historical five-metric meaning while
    every record shares one stable column set.
    """

    jain_fairness: float
    loss_percent: float
    buffer_occupancy_percent: float
    utilization_percent: float
    jitter_ms: float
    fct_p50_s: float = math.nan
    fct_p95_s: float = math.nan
    fct_p99_s: float = math.nan
    active_jain_fairness: float = math.nan
    mean_active_flows: float = math.nan

    def __eq__(self, other: object) -> bool:
        # NaN-aware field equality: the FCT columns are NaN for every run
        # in which no flow completed, and two such records must round-trip
        # the store (and compare in tests) as equal.  Plain dataclass
        # equality would make NaN != NaN, so no record could equal itself.
        if not isinstance(other, AggregateMetrics):
            return NotImplemented
        a, b = self.as_dict(), other.as_dict()
        return all(
            a[name] == b[name] or (math.isnan(a[name]) and math.isnan(b[name]))
            for name in a
        )

    def __hash__(self) -> int:
        # Normalise NaN to a sentinel: since Python 3.10, hash(nan) is
        # identity-based, which would break the eq/hash contract here.
        return hash(
            tuple(
                None if math.isnan(value) else value
                for value in self.as_dict().values()
            )
        )

    def as_dict(self) -> dict[str, float]:
        return {
            "jain_fairness": self.jain_fairness,
            "loss_percent": self.loss_percent,
            "buffer_occupancy_percent": self.buffer_occupancy_percent,
            "utilization_percent": self.utilization_percent,
            "jitter_ms": self.jitter_ms,
            "fct_p50_s": self.fct_p50_s,
            "fct_p95_s": self.fct_p95_s,
            "fct_p99_s": self.fct_p99_s,
            "active_jain_fairness": self.active_jain_fairness,
            "mean_active_flows": self.mean_active_flows,
        }


def aggregate_metrics(trace: Trace) -> AggregateMetrics:
    """Compute all aggregate metrics of the paper's Figs. 6-10 for one trace.

    Churn metrics ride along: FCT percentiles are NaN when no flow departed
    within the trace; the active-set fields are always well defined (for
    long-lived flows they degenerate to the whole-population values).
    """
    from .churn import active_jain_fairness, fct_percentile_s, mean_active_flows
    from .fairness import trace_fairness

    return AggregateMetrics(
        jain_fairness=trace_fairness(trace),
        loss_percent=loss_percent(trace),
        buffer_occupancy_percent=buffer_occupancy_percent(trace),
        utilization_percent=utilization_percent(trace),
        jitter_ms=jitter_ms(trace),
        fct_p50_s=fct_percentile_s(trace, 50),
        fct_p95_s=fct_percentile_s(trace, 95),
        fct_p99_s=fct_percentile_s(trace, 99),
        active_jain_fairness=active_jain_fairness(trace),
        mean_active_flows=mean_active_flows(trace),
    )


@dataclass(frozen=True)
class LinkMetrics:
    """Aggregate state of one queued link of a (multi-bottleneck) trace.

    The scalar :class:`AggregateMetrics` keep the paper's single-bottleneck
    framing (they read ``trace.bottleneck()``); multi-bottleneck topologies
    (parking lots, multi-dumbbells) additionally report one of these per
    queued link, so per-hop questions — where does the loss happen, which
    hop bloats — have first-class answers.
    """

    name: str
    capacity_pps: float
    utilization_percent: float
    loss_percent: float
    mean_queue_pkts: float
    buffer_occupancy_percent: float

    def as_dict(self) -> dict[str, float | str]:
        return {
            "link": self.name,
            "capacity_pps": self.capacity_pps,
            "utilization_percent": self.utilization_percent,
            "loss_percent": self.loss_percent,
            "mean_queue_pkts": self.mean_queue_pkts,
            "buffer_occupancy_percent": self.buffer_occupancy_percent,
        }


def link_metrics(trace: Trace) -> list[LinkMetrics]:
    """Per-link aggregate metrics, one entry per queued link of the trace."""
    import numpy as np

    out = []
    for link in trace.links:
        mean_queue = float(np.mean(link.queue)) if len(link.queue) else 0.0
        out.append(
            LinkMetrics(
                name=link.name,
                capacity_pps=link.capacity_pps,
                utilization_percent=min(100.0, 100.0 * link.utilization()),
                loss_percent=100.0 * link.loss_fraction(),
                mean_queue_pkts=mean_queue,
                buffer_occupancy_percent=100.0 * link.mean_occupancy(),
            )
        )
    return out


#: Two-sided 95% Student-t critical values, indexed by degrees of freedom
#: (1-based; df > 30 falls back to the normal value 1.96).  Enough for the
#: seed-replication counts the campaigns use, without a scipy dependency.
_T95 = (
    12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
    2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
    2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
)


def _t95(df: int) -> float:
    if df < 1:
        return 0.0
    return _T95[df - 1] if df <= len(_T95) else 1.96


@dataclass(frozen=True)
class MetricsSummary:
    """Mean/std/CI of :class:`AggregateMetrics` replicated across seeds.

    The paper's aggregate figures average repeated randomized mininet runs;
    this is the corresponding per-point summary: the per-metric sample mean,
    sample standard deviation (ddof=1) and the half-width of the two-sided
    95% Student-t confidence interval over ``num_seeds`` replicas.
    """

    mean: AggregateMetrics
    std: AggregateMetrics
    ci95: AggregateMetrics
    num_seeds: int

    def as_dict(self) -> dict[str, float]:
        """Flatten into ``{metric}_mean/_std/_ci95`` columns plus the count."""
        out: dict[str, float] = {}
        mean, std, ci = self.mean.as_dict(), self.std.as_dict(), self.ci95.as_dict()
        for name in mean:
            out[f"{name}_mean"] = mean[name]
            out[f"{name}_std"] = std[name]
            out[f"{name}_ci95"] = ci[name]
        out["num_seeds"] = self.num_seeds
        return out


def summarize_metrics(replicas: Sequence[AggregateMetrics]) -> MetricsSummary:
    """Aggregate per-seed :class:`AggregateMetrics` into a :class:`MetricsSummary`.

    A single replica is its own mean, so that case is summarised without
    loading numpy; adding ``0.0`` reproduces ``np.mean`` bit for bit (its
    sum starts from ``+0.0``, which turns ``-0.0`` into ``0.0``).
    """
    if not replicas:
        raise ValueError("at least one metrics replica is required")
    n = len(replicas)
    names = list(replicas[0].as_dict())
    if n == 1:
        means = {name: float(value) + 0.0 for name, value in replicas[0].as_dict().items()}
        stds = {name: 0.0 for name in names}
        cis = {name: 0.0 for name in names}
    else:
        import numpy as np

        values = {name: np.array([r.as_dict()[name] for r in replicas]) for name in names}
        means = {name: float(np.mean(values[name])) for name in names}
        stds = {name: float(np.std(values[name], ddof=1)) for name in names}
        half = _t95(n - 1) / math.sqrt(n)
        cis = {name: half * stds[name] for name in names}
    return MetricsSummary(
        mean=AggregateMetrics(**means),
        std=AggregateMetrics(**stds),
        ci95=AggregateMetrics(**cis),
        num_seeds=n,
    )
