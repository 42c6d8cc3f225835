"""Parameter-sweep engine for the aggregate-validation figures (Figs. 6-10, 13-17).

A sweep runs every combination of CCA mix, buffer size and queue discipline
on a chosen substrate ("fluid" or "emulation"), computes the aggregate
metrics of :mod:`repro.metrics.aggregate`, and returns tidy rows.  Because
the five aggregate figures of the paper all derive from the *same* runs,
sweep results are cached at two levels:

* an in-process cache keyed by the full point configuration (including the
  scenario seed and the emulator's sampling parameters), and
* an optional persistent :class:`~repro.experiments.store.SweepStore`
  (``store=`` argument, ``--store PATH`` flag or ``REPRO_STORE`` env var):
  every point is persisted the moment it completes, so interrupted sweeps
  resume without recomputing finished points and results are shared across
  processes and ``--workers N`` pools.

The paper's aggregate figures average repeated randomized runs; the
``seeds`` axis replicates each point under K scenario seeds and aggregates
the per-seed :class:`~repro.metrics.aggregate.AggregateMetrics` into a
:class:`~repro.metrics.aggregate.MetricsSummary` (mean/std/95% CI)::

    # single-seed points (back-compatible)
    points = run_sweep(substrate="emulation")
    # 5-seed replication with a persistent store
    summaries = run_sweep(substrate="emulation", seeds=5, store="results.jsonl")

The grid is embarrassingly parallel and is exploited two ways:

* on the fluid substrate, all uncached points of a sweep are integrated in
  lockstep through :func:`repro.core.simulator.simulate_many`, which stacks
  the independent scenarios into one batched system (the big win on a
  single core), and
* ``workers=N`` opts into a :class:`~concurrent.futures.ProcessPoolExecutor`
  that fans uncached points out to worker processes (useful on multi-core
  machines and for the emulation substrate, whose points cannot be
  batched).  Results are collected with ``as_completed`` and persisted one
  by one, so a single failing point no longer discards every completed
  result; worker exceptions are re-raised as :class:`SweepPointError`
  naming the failing (mix, buffer, discipline, seed) combination.  The CLI
  exposes all of this as ``repro-bbr sweep/figure/campaign`` with
  ``--workers N``, ``--seeds K`` and ``--store PATH``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from collections.abc import Iterable, Sequence

from ..config import ARRIVAL_PROCESSES, SIZE_DISTRIBUTIONS
from ..core.simulator import FluidSimulator, simulate_many
from ..emulation.runner import EmulationRunner
from ..metrics.aggregate import (
    AggregateMetrics,
    MetricsSummary,
    aggregate_metrics,
    summarize_metrics,
)
from ..obs import TELEMETRY, RuntimeCapture
from . import scenarios
from .backends import shard_of
from .executor import ExecutorPolicy, PointFailure, ResilientExecutor
from .store import SweepStore, resolve_store, scenario_key

#: ``"analytic"`` runs no simulation at all: each grid point is handed to
#: :func:`repro.analysis.analyze_scenario`, and the equilibrium prediction
#: (rates/queue/loss mapped onto the same :class:`AggregateMetrics` columns)
#: plus the stability classification land in the cache/store like any other
#: substrate's rows (the substrate name is part of every key, so analytic
#: rows never alias simulation rows).
SUBSTRATES = ("fluid", "emulation", "analytic")

#: Upper bound on how many scenarios are stacked into one batched
#: integration (bounds the working-set memory of the recording buffers).
BATCH_CHUNK = 64

#: Default emulator sampling parameters (mirrors ``EmulationRunner``).
DEFAULT_RECORD_INTERVAL_S = 0.01
DEFAULT_SCHEDULER = "delayline"


class SweepPointError(RuntimeError):
    """A sweep point failed; carries the failing grid coordinates."""

    def __init__(
        self,
        mix: str,
        buffer_bdp: float,
        discipline: str,
        seed: int,
        error: str | None = None,
    ) -> None:
        message = (
            f"sweep point failed: mix={mix!r}, buffer_bdp={buffer_bdp}, "
            f"discipline={discipline!r}, seed={seed}"
        )
        if error:
            message += f": {error}"
        super().__init__(message)
        self.mix = mix
        self.buffer_bdp = buffer_bdp
        self.discipline = discipline
        self.seed = seed
        self.error = error


@dataclass(frozen=True)
class SweepPoint:
    """One (mix, buffer, discipline, substrate, seed) result of a sweep."""

    mix: str
    buffer_bdp: float
    discipline: str
    substrate: str
    metrics: AggregateMetrics
    seed: int = 1
    #: Non-keyed execution metadata of the run that computed this point
    #: (wall/CPU seconds, peak RSS, substrate counters); ``None`` when the
    #: point was served from a cache or store.  Excluded from equality so
    #: identical results compare equal regardless of where they ran.
    runtime: dict | None = field(default=None, compare=False, repr=False)
    #: Analysis block of an analytic-substrate point (equilibrium regime,
    #: stability classification, max Re lambda, eigenvalues); ``None`` on
    #: the simulation substrates and for store-served rows.  Persisted in
    #: the store meta under ``"analysis"``; excluded from equality like
    #: ``runtime``.
    analysis: dict | None = field(default=None, compare=False, repr=False)

    def row(self) -> dict[str, float | str]:
        """Flatten into a CSV-friendly dictionary."""
        out: dict[str, float | str] = {
            "mix": self.mix,
            "buffer_bdp": self.buffer_bdp,
            "discipline": self.discipline,
            "substrate": self.substrate,
            "seed": self.seed,
        }
        out.update(self.metrics.as_dict())
        return out


@dataclass(frozen=True)
class SummaryPoint:
    """One sweep point replicated across seeds, with mean/std/95% CI."""

    mix: str
    buffer_bdp: float
    discipline: str
    substrate: str
    summary: MetricsSummary
    seeds: tuple[int, ...]

    @property
    def metrics(self) -> AggregateMetrics:
        """The per-seed mean (lets summary points flow through :func:`series`)."""
        return self.summary.mean

    def row(self) -> dict[str, float | str]:
        """Flatten into a CSV-friendly dictionary of mean/std/CI columns."""
        out: dict[str, float | str] = {
            "mix": self.mix,
            "buffer_bdp": self.buffer_bdp,
            "discipline": self.discipline,
            "substrate": self.substrate,
        }
        out.update(self.summary.as_dict())
        return out


@dataclass(frozen=True)
class CampaignFailure:
    """One grid point the executor gave up on (axis combo + error)."""

    mix: str
    buffer_bdp: float
    discipline: str
    substrate: str
    seed: int
    error: str
    attempts: int

    def row(self) -> dict[str, float | str | int]:
        """Flatten into a CSV-friendly dictionary."""
        return {
            "mix": self.mix,
            "buffer_bdp": self.buffer_bdp,
            "discipline": self.discipline,
            "substrate": self.substrate,
            "seed": self.seed,
            "error": self.error,
            "attempts": self.attempts,
        }


@dataclass(frozen=True)
class CampaignResult:
    """The outcome of a campaign grid: completed points + reported failures."""

    points: list[SweepPoint] | list[SummaryPoint]
    failures: list[CampaignFailure]

    @property
    def ok(self) -> bool:
        """True when every grid point completed."""
        return not self.failures


_CACHE: dict[tuple, SweepPoint] = {}


def clear_cache() -> None:
    """Drop all cached sweep points (mainly for tests)."""
    _CACHE.clear()


def _hop_tuple(values: Sequence | None) -> tuple | None:
    """Normalise a per-hop axis value into a hashable tuple (or ``None``)."""
    return None if values is None else tuple(values)


#: Defaults of the churn axis once ``arrivals`` switches it on (kept in one
#: place so the cache key, the store meta and the scenario always agree).
DEFAULT_CHURN_SIZE_DIST = "pareto"
DEFAULT_CHURN_ONOFF_SIZE_DIST = "infinite"
DEFAULT_CHURN_LOAD = 0.5
DEFAULT_CHURN_FLOWS = 100


def normalize_churn_axis(
    arrivals: str | None,
    flow_size_dist: str | None,
    load: float | None,
    flows: int | None,
) -> tuple[str | None, str | None, float | None, int | None]:
    """Validate and default the churn axis (``--arrivals/--flow-size-dist/...``).

    ``arrivals=None`` is the legacy long-lived-flow grid: the other three
    values are meaningless there and must be unset (so a stray ``--load``
    cannot silently do nothing).  With ``arrivals`` set, unset values are
    resolved to their defaults — on/off sources default to long-lived
    (``"infinite"``) sizes, arrival processes to the heavy-tailed bounded
    Pareto — so points alias identically whether the caller spelled the
    default out or not.
    """
    if arrivals is None:
        extras = {
            "flow_size_dist": flow_size_dist,
            "load": load,
            "flows": flows,
        }
        set_extras = [name for name, value in extras.items() if value is not None]
        if set_extras:
            raise ValueError(
                f"{', '.join(set_extras)} require(s) an arrival process; "
                "set arrivals (--arrivals) to enable the churn axis"
            )
        return None, None, None, None
    if arrivals not in ARRIVAL_PROCESSES:
        raise ValueError(
            f"unknown arrival process {arrivals!r}; expected one of {ARRIVAL_PROCESSES}"
        )
    if flow_size_dist is None:
        flow_size_dist = (
            DEFAULT_CHURN_ONOFF_SIZE_DIST if arrivals == "onoff" else DEFAULT_CHURN_SIZE_DIST
        )
    if flow_size_dist not in SIZE_DISTRIBUTIONS:
        raise ValueError(
            f"unknown size distribution {flow_size_dist!r}; "
            f"expected one of {SIZE_DISTRIBUTIONS}"
        )
    load = DEFAULT_CHURN_LOAD if load is None else float(load)
    if load <= 0:
        raise ValueError("load must be positive")
    flows = DEFAULT_CHURN_FLOWS if flows is None else int(flows)
    if flows < 1:
        raise ValueError("flows must be positive")
    return arrivals, flow_size_dist, load, flows


def hop_discipline_label(hop_disciplines: Sequence[str]) -> str:
    """The discipline label of a point whose hops carry explicit disciplines.

    With ``hop_disciplines`` set, the scenario ignores the swept
    ``discipline`` value, so rows/meta/cache keys carry the per-hop
    composite (e.g. ``"red/droptail/red"``) instead of a misleading grid
    label — identical scenarios alias onto one cached/stored point no
    matter which grid label they were requested under.
    """
    return "/".join(hop_disciplines)


def _cache_key(
    mix: str,
    buffer_bdp: float,
    discipline: str,
    substrate: str,
    short_rtt: bool,
    duration_s: float,
    dt: float,
    whi_init_bdp: float | None,
    seed: int,
    record_interval_s: float,
    scheduler: str,
    topology: str | None = None,
    hops: int = 3,
    cross_flows: int = 1,
    hop_capacities: Sequence[float] | None = None,
    hop_delays: Sequence[float] | None = None,
    hop_disciplines: Sequence[str] | None = None,
    arrivals: str | None = None,
    flow_size_dist: str | None = None,
    load: float | None = None,
    flows: int | None = None,
) -> tuple:
    # The seed and the emulator's sampling parameters are part of the key:
    # omitting them aliased points that differ only in seed (or in
    # record_interval_s/scheduler) onto one cache slot.  The fluid model is
    # deterministic, so fluid points *should* alias across the sampling
    # parameters — and across seeds, EXCEPT when a flow schedule draws
    # random arrivals/sizes: materialisation then consumes the seed on both
    # substrates, so fluid seed replicas are genuinely distinct points.
    # The analytic substrate is deterministic in exactly the same sense
    # (and rejects schedules outright), so it shares the normalisation.
    if substrate in ("fluid", "analytic"):
        if not (arrivals == "poisson" or flow_size_dist == "pareto"):
            seed = 1
        record_interval_s = DEFAULT_RECORD_INTERVAL_S
        scheduler = DEFAULT_SCHEDULER
    # The "dumbbell" preset *is* the legacy grid, and hops/cross_flows and
    # the heterogeneous per-hop lists are meaningless without a
    # multi-bottleneck preset: normalise so identical scenarios share one
    # cache slot.
    if topology in (None, "dumbbell"):
        topology = None
        hops = 0
        cross_flows = 0
        hop_capacities = hop_delays = hop_disciplines = None
    return (
        mix,
        buffer_bdp,
        discipline,
        substrate,
        short_rtt,
        duration_s,
        dt,
        whi_init_bdp,
        seed,
        record_interval_s,
        scheduler,
        topology,
        hops,
        cross_flows,
        _hop_tuple(hop_capacities),
        _hop_tuple(hop_delays),
        _hop_tuple(hop_disciplines),
        arrivals,
        flow_size_dist,
        load,
        flows,
    )


def _seed_list(seeds: int | Sequence[int]) -> list[int]:
    """Normalise the seeds axis: an int K means seeds 1..K."""
    if isinstance(seeds, bool):
        raise ValueError("seeds must be an int count or a sequence of seeds")
    if isinstance(seeds, int):
        if seeds < 1:
            raise ValueError("seed count must be at least 1")
        return list(range(1, seeds + 1))
    out = [int(s) for s in seeds]
    if not out:
        raise ValueError("at least one seed is required")
    if len(set(out)) != len(out):
        raise ValueError("seeds must be distinct")
    return out


def validate_shard(
    shard_index: int | None, shard_count: int | None
) -> tuple[int | None, int | None]:
    """Validate the deterministic grid-partitioning axis.

    Both values must be set together; ``shard_index`` must lie in
    ``[0, shard_count)``.  Returns the normalised pair (``(None, None)``
    when sharding is off).
    """
    if (shard_index is None) != (shard_count is None):
        raise ValueError("shard_index and shard_count must be set together")
    if shard_count is None:
        return None, None
    shard_index, shard_count = int(shard_index), int(shard_count)
    if shard_count < 1:
        raise ValueError("shard_count must be at least 1")
    if not 0 <= shard_index < shard_count:
        raise ValueError(
            f"shard_index must be in [0, shard_count): got index {shard_index} "
            f"with {shard_count} shard(s)"
        )
    return shard_index, shard_count


def _point_config(
    mix: str,
    buffer_bdp: float,
    discipline: str,
    short_rtt: bool,
    duration_s: float,
    dt: float,
    whi_init_bdp: float | None,
    seed: int,
    topology: str | None = None,
    hops: int = 3,
    cross_flows: int = 1,
    hop_capacities: Sequence[float] | None = None,
    hop_delays: Sequence[float] | None = None,
    hop_disciplines: Sequence[str] | None = None,
    arrivals: str | None = None,
    flow_size_dist: str | None = None,
    load: float | None = None,
    flows: int | None = None,
):
    if arrivals is not None:
        if topology not in (None, "dumbbell"):
            raise ValueError(
                "the churn axis (arrivals/flow_size_dist/load/flows) is only "
                "defined for the dumbbell grid, not for multi-bottleneck "
                "topology presets"
            )
        assert flow_size_dist is not None and load is not None and flows is not None
        return scenarios.churn_scenario(
            mix,
            num_flows=flows,
            arrivals=arrivals,
            load=load,
            size_dist=flow_size_dist,
            buffer_bdp=buffer_bdp,
            discipline=discipline,
            short_rtt=short_rtt,
            duration_s=duration_s,
            dt=dt,
            whi_init_bdp=whi_init_bdp,
            seed=seed,
        )
    if topology not in (None, "dumbbell"):
        if short_rtt:
            raise ValueError("short_rtt is only defined for the dumbbell grid")
        return scenarios.topology_scenario(
            topology,
            mix=mix,
            hops=hops,
            cross_flows=cross_flows,
            buffer_bdp=buffer_bdp,
            discipline=discipline,
            duration_s=duration_s,
            dt=dt,
            whi_init_bdp=whi_init_bdp,
            seed=seed,
            hop_capacities=hop_capacities,
            hop_delays=hop_delays,
            hop_disciplines=hop_disciplines,
        )
    if hop_capacities is not None or hop_delays is not None or hop_disciplines is not None:
        # Dumbbell / legacy grid: per-hop lists have nothing to apply to.
        scenarios.validate_hop_axis(
            hops, hop_capacities, hop_delays, hop_disciplines, preset="dumbbell"
        )
    return scenarios.aggregate_scenario(
        mix,
        buffer_bdp=buffer_bdp,
        discipline=discipline,
        short_rtt=short_rtt,
        duration_s=duration_s,
        dt=dt,
        whi_init_bdp=whi_init_bdp,
        seed=seed,
    )


def _store_meta(
    mix: str,
    buffer_bdp: float,
    discipline: str,
    substrate: str,
    short_rtt: bool,
    duration_s: float,
    dt: float,
    whi_init_bdp: float | None,
    seed: int,
    record_interval_s: float,
    scheduler: str,
    topology: str | None = None,
    hops: int = 3,
    cross_flows: int = 1,
    hop_capacities: Sequence[float] | None = None,
    hop_delays: Sequence[float] | None = None,
    hop_disciplines: Sequence[str] | None = None,
    arrivals: str | None = None,
    flow_size_dist: str | None = None,
    load: float | None = None,
    flows: int | None = None,
) -> dict:
    meta = {
        "mix": mix,
        "buffer_bdp": buffer_bdp,
        "discipline": discipline,
        "substrate": substrate,
        "short_rtt": short_rtt,
        "duration_s": duration_s,
        "dt": dt,
        "whi_init_bdp": whi_init_bdp,
        "seed": seed,
    }
    if topology not in (None, "dumbbell"):
        meta["topology"] = topology
        meta["hops"] = hops
        meta["cross_flows"] = cross_flows
        if hop_capacities is not None:
            meta["hop_capacities"] = list(hop_capacities)
        if hop_delays is not None:
            meta["hop_delays"] = list(hop_delays)
        if hop_disciplines is not None:
            meta["hop_disciplines"] = list(hop_disciplines)
    if arrivals is not None:
        meta["arrivals"] = arrivals
        meta["flow_size_dist"] = flow_size_dist
        meta["load"] = load
        meta["flows"] = flows
    if substrate == "emulation":
        meta["record_interval_s"] = record_interval_s
        meta["scheduler"] = scheduler
    return meta


def run_point(
    mix: str,
    buffer_bdp: float,
    discipline: str,
    substrate: str = "fluid",
    short_rtt: bool = False,
    duration_s: float = 5.0,
    dt: float = scenarios.SWEEP_DT,
    whi_init_bdp: float | None = None,
    seed: int = 1,
    seeds: int | Sequence[int] | None = None,
    record_interval_s: float = DEFAULT_RECORD_INTERVAL_S,
    scheduler: str = DEFAULT_SCHEDULER,
    use_cache: bool = True,
    store: SweepStore | str | bool | None = None,
    topology: str | None = None,
    hops: int = 3,
    cross_flows: int = 1,
    hop_capacities: Sequence[float] | None = None,
    hop_delays: Sequence[float] | None = None,
    hop_disciplines: Sequence[str] | None = None,
    arrivals: str | None = None,
    flow_size_dist: str | None = None,
    load: float | None = None,
    flows: int | None = None,
) -> SweepPoint | SummaryPoint:
    """Run (or fetch from cache/store) a single sweep point.

    With ``seeds`` set (an int K or an explicit seed sequence) the point is
    replicated across seeds and a :class:`SummaryPoint` with mean/std/CI is
    returned; each per-seed replica is individually cached and persisted
    (fluid replicas alias onto one computation — the fluid model never
    consumes the seed).  ``store=False`` disables persistence outright,
    ignoring ``REPRO_STORE``.

    ``topology`` selects a multi-bottleneck preset ("parking-lot" or
    "multi-dumbbell"; ``None``/"dumbbell" is the legacy grid) with ``hops``
    chain links / dumbbells and ``cross_flows`` per-hop cross / spanning
    flows (see :func:`~repro.experiments.scenarios.topology_scenario`).
    ``hop_capacities``/``hop_delays``/``hop_disciplines`` make the chain
    heterogeneous (one value per hop, validated up front); they are part of
    the cache key and the store meta.

    ``arrivals`` switches the point to a churn workload (see
    :func:`~repro.experiments.scenarios.churn_scenario`): the flow
    population becomes time-varying with ``flows`` flows arriving by the
    named process at offered load ``load``, drawing ``flow_size_dist``
    sizes.  Random schedules (poisson arrivals or pareto sizes) consume the
    scenario seed on *both* substrates, so fluid seed replicas are then
    genuinely distinct runs.
    """
    if substrate not in SUBSTRATES:
        raise ValueError(f"unknown substrate {substrate!r}")
    arrivals, flow_size_dist, load, flows = normalize_churn_axis(
        arrivals, flow_size_dist, load, flows
    )
    if substrate == "analytic" and arrivals is not None:
        raise ValueError(
            "the analytic substrate predicts steady states; churn workloads "
            "(arrivals/flow_size_dist/load/flows) have no equilibrium to analyze"
        )
    # ``topology=None`` is the legacy dumbbell grid, where per-hop lists
    # have nothing to apply to — validate them under the same rule.
    hop_capacities, hop_delays, hop_disciplines = scenarios.validate_hop_axis(
        hops, hop_capacities, hop_delays, hop_disciplines,
        preset=topology or "dumbbell",
    )
    if hop_disciplines is not None:
        # The per-hop list overrides the scalar discipline; label the point
        # (and key/persist it) by what actually ran.
        discipline = hop_discipline_label(hop_disciplines)
    store = resolve_store(store)
    if seeds is not None:
        seed_list = _seed_list(seeds)
        replicas = [
            run_point(
                mix,
                buffer_bdp,
                discipline,
                substrate=substrate,
                short_rtt=short_rtt,
                duration_s=duration_s,
                dt=dt,
                whi_init_bdp=whi_init_bdp,
                seed=s,
                record_interval_s=record_interval_s,
                scheduler=scheduler,
                use_cache=use_cache,
                store=store,
                topology=topology,
                hops=hops,
                cross_flows=cross_flows,
                hop_capacities=hop_capacities,
                hop_delays=hop_delays,
                hop_disciplines=hop_disciplines,
                arrivals=arrivals,
                flow_size_dist=flow_size_dist,
                load=load,
                flows=flows,
            )
            for s in seed_list
        ]
        return SummaryPoint(
            mix=mix,
            buffer_bdp=buffer_bdp,
            discipline=discipline,
            substrate=substrate,
            summary=summarize_metrics([p.metrics for p in replicas]),
            seeds=tuple(seed_list),
        )
    key = _cache_key(
        mix, buffer_bdp, discipline, substrate, short_rtt, duration_s, dt,
        whi_init_bdp, seed, record_interval_s, scheduler, topology, hops, cross_flows,
        hop_capacities, hop_delays, hop_disciplines,
        arrivals, flow_size_dist, load, flows,
    )
    if use_cache and key in _CACHE:
        return _CACHE[key]
    config = _point_config(
        mix, buffer_bdp, discipline, short_rtt, duration_s, dt, whi_init_bdp, seed,
        topology, hops, cross_flows, hop_capacities, hop_delays, hop_disciplines,
        arrivals, flow_size_dist, load, flows,
    )
    metrics = None
    runtime: dict | None = None
    analysis_block: dict | None = None
    if store is not None:
        skey = scenario_key(config, substrate, record_interval_s, scheduler)
        metrics = store.get(skey)
    if metrics is None:
        with RuntimeCapture() as rt:
            if substrate == "analytic":
                # Importing the analysis layer needs only numpy; it loads
                # scipy itself on the first numerical fallback, so the
                # simulation substrates never pay for it.
                from .. import analysis as _analysis

                prediction = _analysis.analyze_scenario(config)
                metrics = prediction.metrics()
                analysis_block = prediction.as_meta()
                counters = {"flows": config.num_flows}
            else:
                if substrate == "fluid":
                    sim = FluidSimulator(config)
                    trace = sim.run()
                    counters = dict(sim.runtime)
                else:
                    runner = EmulationRunner(
                        config, record_interval_s=record_interval_s, scheduler=scheduler
                    )
                    trace = runner.run()
                    counters = runner.runtime_counters()
                metrics = aggregate_metrics(trace)
        runtime = rt.block(counters)
        if store is not None:
            meta = _store_meta(
                mix, buffer_bdp, discipline, substrate, short_rtt, duration_s,
                dt, whi_init_bdp, seed, record_interval_s, scheduler,
                topology, hops, cross_flows,
                hop_capacities, hop_delays, hop_disciplines,
                arrivals, flow_size_dist, load, flows,
            )
            if analysis_block is not None:
                meta["analysis"] = analysis_block
            store.put(skey, metrics, meta=meta, runtime=runtime)
    point = SweepPoint(
        mix=mix,
        buffer_bdp=buffer_bdp,
        discipline=discipline,
        substrate=substrate,
        metrics=metrics,
        seed=seed,
        runtime=runtime,
        analysis=analysis_block,
    )
    if use_cache:
        _CACHE[key] = point
    return point


def _run_grid(
    mixes: Iterable[str] | None = None,
    buffers_bdp: Iterable[float] | None = None,
    disciplines: Iterable[str] | None = None,
    substrate: str = "fluid",
    short_rtt: bool = False,
    duration_s: float = 5.0,
    dt: float = scenarios.SWEEP_DT,
    whi_init_bdp: float | None = None,
    workers: int | None = None,
    seeds: int | Sequence[int] | None = None,
    record_interval_s: float = DEFAULT_RECORD_INTERVAL_S,
    scheduler: str = DEFAULT_SCHEDULER,
    store: SweepStore | str | bool | None = None,
    topology: str | None = None,
    hops: int = 3,
    cross_flows: int = 1,
    hop_capacities: Sequence[float] | None = None,
    hop_delays: Sequence[float] | None = None,
    hop_disciplines: Sequence[str] | None = None,
    arrivals: str | None = None,
    flow_size_dist: str | None = None,
    load: float | None = None,
    flows: int | None = None,
    executor: ExecutorPolicy | None = None,
    retry_failed: bool = True,
    trace: str | Path | None = None,
    prune_analytic: bool = False,
    shard_index: int | None = None,
    shard_count: int | None = None,
) -> tuple[list[SweepPoint] | list[SummaryPoint], list[CampaignFailure]]:
    """Shared grid engine behind :func:`run_sweep` and :func:`run_campaign`.

    Returns ``(points, failures)``; in the default ``on_failure="raise"``
    policy a non-empty failure list raises :class:`SweepPointError` instead
    of returning, after the rest of the grid has completed and persisted.
    """
    if trace is not None:
        # Re-enter with telemetry routed to the span log for the whole grid
        # (workers self-enable via the env var the context manager sets).
        # ``locals()`` is snapshotted before any other name is bound, so it
        # holds exactly this function's parameters.
        params = dict(locals())
        params["trace"] = None
        with TELEMETRY.tracing(trace):
            return _run_grid(**params)
    if substrate not in SUBSTRATES:
        raise ValueError(f"unknown substrate {substrate!r}")
    arrivals, flow_size_dist, load, flows = normalize_churn_axis(
        arrivals, flow_size_dist, load, flows
    )
    hop_capacities, hop_delays, hop_disciplines = scenarios.validate_hop_axis(
        hops, hop_capacities, hop_delays, hop_disciplines,
        preset=topology or "dumbbell",
    )
    shard_index, shard_count = validate_shard(shard_index, shard_count)
    if prune_analytic and substrate == "emulation":
        raise ValueError(
            "prune_analytic applies to the fluid and analytic substrates; the "
            "trajectory-equivalence certificate is proven for the reduced "
            "fluid model, not the packet emulator"
        )
    store = resolve_store(store)
    mixes = list(mixes) if mixes is not None else list(scenarios.CCA_MIXES)
    buffers = list(buffers_bdp) if buffers_bdp is not None else list(scenarios.BUFFER_SWEEP_BDP)
    disciplines = list(disciplines) if disciplines is not None else list(scenarios.DISCIPLINES)
    if hop_disciplines is not None:
        # The per-hop list fixes every hop's discipline, so sweeping the
        # discipline axis would label identical runs droptail *and* red.
        if len(disciplines) > 1:
            raise ValueError(
                "hop_disciplines fixes every hop's queue discipline; restrict "
                "the sweep to a single disciplines value (e.g. --disciplines "
                "droptail) instead of sweeping the discipline axis"
            )
        # Label the grid's single discipline slot by what actually runs.
        disciplines = [hop_discipline_label(hop_disciplines)]
    seed_list = _seed_list(seeds) if seeds is not None else [1]
    combos = [
        (discipline, mix, buffer_bdp)
        for discipline in disciplines
        for mix in mixes
        for buffer_bdp in buffers
    ]
    tasks = [combo + (seed,) for combo in combos for seed in seed_list]

    def task_key(task: tuple) -> tuple:
        discipline, mix, buffer_bdp, seed = task
        return _cache_key(
            mix, buffer_bdp, discipline, substrate, short_rtt, duration_s, dt,
            whi_init_bdp, seed, record_interval_s, scheduler,
            topology, hops, cross_flows,
            hop_capacities, hop_delays, hop_disciplines,
            arrivals, flow_size_dist, load, flows,
        )

    def task_config(task: tuple):
        discipline, mix, buffer_bdp, seed = task
        return _point_config(
            mix, buffer_bdp, discipline, short_rtt, duration_s, dt,
            whi_init_bdp, seed, topology, hops, cross_flows,
            hop_capacities, hop_delays, hop_disciplines,
            arrivals, flow_size_dist, load, flows,
        )

    def point_key(task: tuple) -> str:
        return scenario_key(task_config(task), substrate, record_interval_s, scheduler)

    if shard_count is not None:
        # Deterministic grid partitioning: this process takes only the
        # points whose scenario key hashes into its shard, so K hosts can
        # split one grid and ``store merge`` reassembles the result set.
        tasks = [
            task for task in tasks
            if shard_of(point_key(task), shard_count) == shard_index
        ]

    results: dict[tuple, SweepPoint] = {}
    pending: list[tuple] = []
    pending_keys: set[tuple] = set()
    duplicates: list[tuple] = []
    for task in tasks:
        key = task_key(task)
        if key in _CACHE:
            results[task] = _CACHE[key]
            continue
        if key in pending_keys:
            # Same cache key as an already-pending task (fluid seed
            # replicas alias deliberately): compute once, share the result.
            duplicates.append(task)
            continue
        if store is not None:
            discipline, mix, buffer_bdp, seed = task
            config = _point_config(
                mix, buffer_bdp, discipline, short_rtt, duration_s, dt,
                whi_init_bdp, seed, topology, hops, cross_flows,
                hop_capacities, hop_delays, hop_disciplines,
                arrivals, flow_size_dist, load, flows,
            )
            metrics = store.get(scenario_key(config, substrate, record_interval_s, scheduler))
            if metrics is not None:
                point = SweepPoint(
                    mix=mix,
                    buffer_bdp=buffer_bdp,
                    discipline=discipline,
                    substrate=substrate,
                    metrics=metrics,
                    seed=seed,
                )
                results[task] = _CACHE[key] = point
                continue
        pending.append(task)
        pending_keys.add(key)

    # Analytic pre-pass pruner: group the pending points whose buffer
    # provably never binds (see :func:`repro.analysis.buffer_never_binds`).
    # Within a group the trajectory — and hence every metric except the
    # occupancy normalisation — is independent of the buffer size, so one
    # member (the *primary*) is computed and the rest become aliases,
    # materialised from the primary's result after the dispatch below.
    alias_of: dict[tuple, tuple] = {}
    if prune_analytic and pending:
        # The certificate is closed-form arithmetic, and importing the
        # analysis layer loads no scipy (only its numerical fallback does).
        from .. import analysis as _analysis

        def _certificate(task: tuple) -> str | None:
            config = task_config(task)
            if not _analysis.buffer_never_binds(config):
                return None
            # All group members share the scenario up to the buffer size;
            # key the group by the buffer-free scenario.
            return scenario_key(
                config.with_buffer(float("inf")), substrate, record_interval_s, scheduler
            )

        certified: dict[str, list[tuple]] = {}
        kept: list[tuple] = []
        for task in pending:
            signature = _certificate(task)
            if signature is None:
                kept.append(task)
            else:
                certified.setdefault(signature, []).append(task)
        # A point already resolved (cache/store) with the same certificate
        # can serve as the group's primary without computing anything.
        # (Infinite-buffer rows are excluded: their occupancy column cannot
        # be rescaled onto a finite alias.)
        resolved: dict[str, tuple] = {}
        for task in results:
            if math.isinf(task[2]):
                continue
            signature = _certificate(task)
            if signature is not None and signature not in resolved:
                resolved[signature] = task
        for signature, group in certified.items():
            primary = resolved.get(signature)
            if primary is None:
                # Prefer the smallest finite buffer: its occupancy column
                # rescales to every larger alias without extrapolation.
                primary = min(group, key=lambda t: (math.isinf(t[2]), t[2]))
                kept.append(primary)
            for task in group:
                if task != primary:
                    alias_of[task] = primary
        pending = kept

    def persist(task: tuple, point: SweepPoint, extra_meta: dict | None = None) -> None:
        """Land one computed point: in-process cache + persistent store."""
        results[task] = _CACHE[task_key(task)] = point
        if store is not None:
            discipline, mix, buffer_bdp, seed = task
            meta = _store_meta(
                mix, buffer_bdp, discipline, substrate, short_rtt, duration_s,
                dt, whi_init_bdp, seed, record_interval_s, scheduler,
                topology, hops, cross_flows,
                hop_capacities, hop_delays, hop_disciplines,
                arrivals, flow_size_dist, load, flows,
            )
            if point.analysis is not None:
                meta["analysis"] = point.analysis
            if extra_meta:
                meta.update(extra_meta)
            store.put(
                point_key(task),
                point.metrics,
                meta=meta,
                runtime=point.runtime,
            )

    # The executor policy: an explicit ``executor`` wins, with ``workers``
    # filling its pool size when the policy leaves it unset; the bare
    # ``workers`` argument is shorthand for a default-policy pool.
    policy = executor if executor is not None else ExecutorPolicy(workers=workers)
    if executor is not None and policy.workers is None and workers is not None:
        policy = replace(policy, workers=workers)

    exec_failures: list[PointFailure] = []

    # ``retry_failed=False`` resume semantics: points whose last attempt is
    # recorded as a *failure* row are reported again without recomputation,
    # so a warm re-run after a partial campaign recomputes nothing.
    if store is not None and not retry_failed and pending:
        recorded = {rec["key"]: rec for rec in store.failures()}
        if recorded:
            fresh: list[tuple] = []
            for task in pending:
                record = recorded.get(point_key(task))
                if record is None:
                    fresh.append(task)
                else:
                    exec_failures.append(
                        PointFailure(
                            task=task,
                            error=str(record.get("error") or "recorded failure"),
                            attempts=0,
                        )
                    )
            pending = fresh

    point_kwargs = {
        "substrate": substrate,
        "short_rtt": short_rtt,
        "duration_s": duration_s,
        "dt": dt,
        "whi_init_bdp": whi_init_bdp,
        "record_interval_s": record_interval_s,
        "scheduler": scheduler,
        # The parent owns all cache and store writes; workers must not
        # open (or pick up via REPRO_STORE) the store file.
        "use_cache": False,
        "store": False,
        "topology": topology,
        "hops": hops,
        "cross_flows": cross_flows,
        "hop_capacities": hop_capacities,
        "hop_delays": hop_delays,
        "hop_disciplines": hop_disciplines,
        "arrivals": arrivals,
        "flow_size_dist": flow_size_dist,
        "load": load,
        "flows": flows,
    }

    def task_args(task: tuple) -> tuple[tuple, dict]:
        discipline, mix, buffer_bdp, seed = task
        return (mix, buffer_bdp, discipline), {**point_kwargs, "seed": seed}

    def describe(task: tuple) -> str:
        discipline, mix, buffer_bdp, seed = task
        return (
            f"mix={mix!r}, buffer_bdp={buffer_bdp}, "
            f"discipline={discipline!r}, seed={seed}"
        )

    def execute(batch: list[tuple]) -> None:
        report = ResilientExecutor(policy).run(
            batch, run_point, task_args, on_result=persist, describe=describe
        )
        exec_failures.extend(report.failures)

    if pending and policy.pooled:
        execute(pending)
    elif pending and substrate == "fluid":
        # Batched path: stack the chunk into one lockstep integration (the
        # big single-core win).  A chunk that fails falls back to per-point
        # execution under the executor policy, which isolates and reports
        # the offending point(s) without discarding the healthy ones.
        for chunk_start in range(0, len(pending), BATCH_CHUNK):
            chunk = pending[chunk_start : chunk_start + BATCH_CHUNK]
            try:
                configs = [
                    _point_config(
                        mix, buffer_bdp, discipline, short_rtt, duration_s, dt,
                        whi_init_bdp, seed, topology, hops, cross_flows,
                        hop_capacities, hop_delays, hop_disciplines,
                        arrivals, flow_size_dist, load, flows,
                    )
                    for discipline, mix, buffer_bdp, seed in chunk
                ]
                with RuntimeCapture() as capture:
                    traces = simulate_many(configs)
            except Exception:
                execute(chunk)
                continue
            # Lockstep chunks share one integration, so the measured cost
            # is amortised evenly over the chunk's points (``shared=``).
            chunk_runtime = capture.block(
                {"steps": int(round(duration_s / dt)) + 1, "lockstep": len(chunk)},
                shared=len(chunk),
            )
            for task, point_trace in zip(chunk, traces, strict=True):
                discipline, mix, buffer_bdp, seed = task
                persist(
                    task,
                    SweepPoint(
                        mix=mix,
                        buffer_bdp=buffer_bdp,
                        discipline=discipline,
                        substrate=substrate,
                        metrics=aggregate_metrics(point_trace),
                        seed=seed,
                        runtime=chunk_runtime,
                    ),
                )
    elif pending:
        # Serial path: the executor runs each point inline (retries,
        # timeouts and skip semantics still apply; no pool is spawned).
        execute(pending)

    # Materialise pruned aliases from their primaries: same metrics with
    # the occupancy column rescaled to the alias's own buffer, persisted
    # with a ``pruned`` meta block recording the aliasing.  A result row
    # supersedes any stale failure row for the alias in the store.
    for task, primary in alias_of.items():
        source = results.get(primary)
        if source is None:
            # The primary itself failed or was skipped; the alias simply
            # stays uncomputed (and unrecorded) this run.
            continue
        discipline, mix, buffer_bdp, seed = task
        primary_buffer = primary[2]
        occupancy = source.metrics.buffer_occupancy_percent
        if math.isinf(buffer_bdp):
            occupancy = 0.0
        elif not math.isnan(occupancy):
            occupancy = min(100.0, occupancy * (primary_buffer / buffer_bdp))
        TELEMETRY.count("sweep.pruned_points")
        persist(
            task,
            SweepPoint(
                mix=mix,
                buffer_bdp=buffer_bdp,
                discipline=discipline,
                substrate=substrate,
                metrics=replace(source.metrics, buffer_occupancy_percent=occupancy),
                seed=seed,
                runtime=None,
                analysis=source.analysis,
            ),
            extra_meta={
                "pruned": {
                    "aliased_to": point_key(primary),
                    "primary_buffer_bdp": primary_buffer,
                    "reason": (
                        "buffer never binds: inflight is provably below every "
                        "buffer in the group, so the trajectory is identical "
                        "up to occupancy normalisation"
                    ),
                }
            },
        )

    for task in duplicates:
        # A duplicate's primary may itself have failed; it then simply has
        # no result to share.
        key = task_key(task)
        if key in _CACHE:
            results[task] = _CACHE[key]

    failures: list[CampaignFailure] = []
    for failure in exec_failures:
        discipline, mix, buffer_bdp, seed = failure.task
        failures.append(
            CampaignFailure(
                mix=mix,
                buffer_bdp=buffer_bdp,
                discipline=discipline,
                substrate=substrate,
                seed=seed,
                error=failure.error,
                attempts=failure.attempts,
            )
        )
        if store is not None and failure.attempts > 0:
            # Freshly attempted failures are recorded (axis combo + error)
            # so warm re-runs can skip them; attempts == 0 means the row is
            # already in the store (served by retry_failed=False above).
            store.put_failure(
                point_key(failure.task),
                failure.error,
                meta=_store_meta(
                    mix, buffer_bdp, discipline, substrate, short_rtt, duration_s,
                    dt, whi_init_bdp, seed, record_interval_s, scheduler,
                    topology, hops, cross_flows,
                    hop_capacities, hop_delays, hop_disciplines,
                    arrivals, flow_size_dist, load, flows,
                ),
            )
    if failures and policy.on_failure == "raise":
        first = failures[0]
        raise SweepPointError(
            first.mix, first.buffer_bdp, first.discipline, first.seed,
            error=first.error,
        )

    if seeds is None:
        singles = [results[combo + (1,)] for combo in combos if combo + (1,) in results]
        return singles, failures
    summaries: list[SummaryPoint] = []
    for combo in combos:
        discipline, mix, buffer_bdp = combo
        replicas = [
            results[combo + (seed,)] for seed in seed_list if combo + (seed,) in results
        ]
        if not replicas:
            continue
        summaries.append(
            SummaryPoint(
                mix=mix,
                buffer_bdp=buffer_bdp,
                discipline=discipline,
                substrate=substrate,
                summary=summarize_metrics([p.metrics for p in replicas]),
                seeds=tuple(s for s in seed_list if combo + (s,) in results),
            )
        )
    return summaries, failures


def run_sweep(
    mixes: Iterable[str] | None = None,
    buffers_bdp: Iterable[float] | None = None,
    disciplines: Iterable[str] | None = None,
    substrate: str = "fluid",
    short_rtt: bool = False,
    duration_s: float = 5.0,
    dt: float = scenarios.SWEEP_DT,
    whi_init_bdp: float | None = None,
    workers: int | None = None,
    seeds: int | Sequence[int] | None = None,
    record_interval_s: float = DEFAULT_RECORD_INTERVAL_S,
    scheduler: str = DEFAULT_SCHEDULER,
    store: SweepStore | str | bool | None = None,
    topology: str | None = None,
    hops: int = 3,
    cross_flows: int = 1,
    hop_capacities: Sequence[float] | None = None,
    hop_delays: Sequence[float] | None = None,
    hop_disciplines: Sequence[str] | None = None,
    arrivals: str | None = None,
    flow_size_dist: str | None = None,
    load: float | None = None,
    flows: int | None = None,
    executor: ExecutorPolicy | None = None,
    retry_failed: bool = True,
    trace: str | Path | None = None,
    prune_analytic: bool = False,
    shard_index: int | None = None,
    shard_count: int | None = None,
) -> list[SweepPoint] | list[SummaryPoint]:
    """Run the full (or a reduced) aggregate-validation sweep.

    ``topology`` swaps the scenario family of every grid point from the
    paper's dumbbell to a multi-bottleneck preset ("parking-lot" or
    "multi-dumbbell") built with ``hops`` and ``cross_flows``; the (mix,
    buffer, discipline, seed) grid, the caches and the persistent store all
    work identically (the store key hashes the full scenario including its
    topology).  ``hop_capacities``/``hop_delays``/``hop_disciplines`` make
    every grid point's chain heterogeneous (one value per hop, validated
    against ``hops`` before any point runs).

    ``seeds`` (an int K or an explicit seed sequence) replicates every grid
    point across scenario seeds and returns :class:`SummaryPoint` rows with
    mean/std/95% CI; without it, single-seed :class:`SweepPoint` rows are
    returned.  The fluid substrate is deterministic, so its seed replicas
    alias onto a single computation (and a single store record).  ``store``
    (or the ``REPRO_STORE`` env var) persists each point as soon as it
    completes, so interrupted sweeps resume without recomputing finished
    points.

    Execution goes through a
    :class:`~repro.experiments.executor.ResilientExecutor`: ``workers=N``
    (N > 1) fans uncached points out to a process pool (each result is
    cached and persisted as it lands), otherwise fluid sweeps run batched
    in-process via :func:`~repro.core.simulator.simulate_many` and
    emulation sweeps run serially.  ``executor`` supplies the full policy —
    per-point retries with backoff, per-point timeouts, heartbeat progress
    logging, and ``on_failure``: under the default ``"raise"``, a point
    that exhausts its retries raises :class:`SweepPointError` naming its
    grid coordinates *after* the rest of the grid has completed and
    persisted; under ``"skip"``, failed points are recorded in the store as
    structured failure rows and the sweep returns the completed points (use
    :func:`run_campaign` to receive the failure report).  With
    ``retry_failed=False``, a warm re-run serves recorded failures from the
    store instead of recomputing them.  Cached points are never
    re-dispatched.

    ``arrivals`` switches every grid point to a churn workload with
    ``flows`` flows arriving by the named process at offered load ``load``
    and ``flow_size_dist`` sizes (see
    :func:`~repro.experiments.scenarios.churn_scenario`); the grid, the
    caches and the store keep working identically, and the churn axis rides
    along in the cache key and the store meta.

    ``trace`` names a JSON-lines span-log file: telemetry is enabled for
    the whole grid (workers included) and every span/counter/progress
    event is appended there (``repro-bbr trace export --chrome`` converts
    it for chrome://tracing).  Tracing never changes results — scenario
    keys and metric values are bit-identical with an untraced run.

    ``prune_analytic`` runs an analytic pre-pass over the grid: points
    whose buffer provably never binds (see
    :func:`repro.analysis.buffer_never_binds`) share one computed primary
    per group, with the aliases materialised from it (occupancy rescaled)
    and recorded in the store with a ``pruned`` meta block.

    ``shard_index``/``shard_count`` partition the grid deterministically by
    scenario-key hash (``shard_of(key, shard_count)``), so K hosts can each
    run one shard against separate stores and ``repro-bbr store merge``
    reassembles them.
    """
    points, _failures = _run_grid(**locals())
    return points


def run_campaign(
    mixes: Iterable[str] | None = None,
    buffers_bdp: Iterable[float] | None = None,
    disciplines: Iterable[str] | None = None,
    substrate: str = "fluid",
    short_rtt: bool = False,
    duration_s: float = 5.0,
    dt: float = scenarios.SWEEP_DT,
    whi_init_bdp: float | None = None,
    workers: int | None = None,
    seeds: int | Sequence[int] | None = None,
    record_interval_s: float = DEFAULT_RECORD_INTERVAL_S,
    scheduler: str = DEFAULT_SCHEDULER,
    store: SweepStore | str | bool | None = None,
    topology: str | None = None,
    hops: int = 3,
    cross_flows: int = 1,
    hop_capacities: Sequence[float] | None = None,
    hop_delays: Sequence[float] | None = None,
    hop_disciplines: Sequence[str] | None = None,
    arrivals: str | None = None,
    flow_size_dist: str | None = None,
    load: float | None = None,
    flows: int | None = None,
    executor: ExecutorPolicy | None = None,
    retry_failed: bool = True,
    trace: str | Path | None = None,
    prune_analytic: bool = False,
    shard_index: int | None = None,
    shard_count: int | None = None,
) -> CampaignResult:
    """Run a sweep grid and return points *and* structured failures.

    Identical to :func:`run_sweep` (same axes, caches, store and executor
    policy) but returns a :class:`CampaignResult` whose ``failures`` list
    reports every grid point the executor gave up on — the service-grade
    entry point: with ``executor=ExecutorPolicy(on_failure="skip", ...)``
    a campaign survives crashing or failing points, completes the rest of
    the grid, and reports what failed instead of raising.
    """
    points, failures = _run_grid(**locals())
    return CampaignResult(points=points, failures=failures)


def grid_point_keys(
    mixes: Iterable[str] | None = None,
    buffers_bdp: Iterable[float] | None = None,
    disciplines: Iterable[str] | None = None,
    substrate: str = "fluid",
    short_rtt: bool = False,
    duration_s: float = 5.0,
    dt: float = scenarios.SWEEP_DT,
    whi_init_bdp: float | None = None,
    seeds: int | Sequence[int] | None = None,
    record_interval_s: float = DEFAULT_RECORD_INTERVAL_S,
    scheduler: str = DEFAULT_SCHEDULER,
    topology: str | None = None,
    hops: int = 3,
    cross_flows: int = 1,
    hop_capacities: Sequence[float] | None = None,
    hop_delays: Sequence[float] | None = None,
    hop_disciplines: Sequence[str] | None = None,
    arrivals: str | None = None,
    flow_size_dist: str | None = None,
    load: float | None = None,
    flows: int | None = None,
    shard_index: int | None = None,
    shard_count: int | None = None,
) -> list[tuple[dict, str]]:
    """Enumerate a grid's ``(coords, scenario_key)`` pairs without running it.

    Powers ``repro-bbr status``: the same axis normalisation, combo
    enumeration and key derivation as :func:`_run_grid`, but no point is
    computed.  Tasks that alias onto one scenario key (fluid seed replicas
    of seed-free scenarios) are deduplicated — the returned list has one
    entry per *distinct* stored record the grid would produce, so
    ``done + failed + remaining`` adds up against the store.
    ``shard_index``/``shard_count`` restrict the enumeration to one shard,
    mirroring the partitioning of :func:`run_sweep`.
    """
    if substrate not in SUBSTRATES:
        raise ValueError(f"unknown substrate {substrate!r}")
    arrivals, flow_size_dist, load, flows = normalize_churn_axis(
        arrivals, flow_size_dist, load, flows
    )
    hop_capacities, hop_delays, hop_disciplines = scenarios.validate_hop_axis(
        hops, hop_capacities, hop_delays, hop_disciplines,
        preset=topology or "dumbbell",
    )
    shard_index, shard_count = validate_shard(shard_index, shard_count)
    mixes = list(mixes) if mixes is not None else list(scenarios.CCA_MIXES)
    buffers = list(buffers_bdp) if buffers_bdp is not None else list(scenarios.BUFFER_SWEEP_BDP)
    disciplines = list(disciplines) if disciplines is not None else list(scenarios.DISCIPLINES)
    if hop_disciplines is not None:
        if len(disciplines) > 1:
            raise ValueError(
                "hop_disciplines fixes every hop's queue discipline; restrict "
                "the grid to a single disciplines value"
            )
        disciplines = [hop_discipline_label(hop_disciplines)]
    seed_list = _seed_list(seeds) if seeds is not None else [1]
    out: list[tuple[dict, str]] = []
    seen: set[str] = set()
    for discipline in disciplines:
        for mix in mixes:
            for buffer_bdp in buffers:
                for seed in seed_list:
                    config = _point_config(
                        mix, buffer_bdp, discipline, short_rtt, duration_s, dt,
                        whi_init_bdp, seed, topology, hops, cross_flows,
                        hop_capacities, hop_delays, hop_disciplines,
                        arrivals, flow_size_dist, load, flows,
                    )
                    key = scenario_key(config, substrate, record_interval_s, scheduler)
                    if key in seen:
                        continue
                    seen.add(key)
                    if shard_count is not None and shard_of(key, shard_count) != shard_index:
                        continue
                    out.append(
                        (
                            {
                                "mix": mix,
                                "buffer_bdp": buffer_bdp,
                                "discipline": discipline,
                                "substrate": substrate,
                                "seed": seed,
                            },
                            key,
                        )
                    )
    return out


def series(
    points: Iterable[SweepPoint | SummaryPoint], metric: str, mix: str, discipline: str
) -> list[tuple[float, float]]:
    """Extract one figure line: (buffer, metric value) for a mix and discipline.

    :class:`SummaryPoint` rows contribute their per-seed mean.
    """
    rows = [
        (p.buffer_bdp, float(p.metrics.as_dict()[metric]))
        for p in points
        if p.mix == mix and p.discipline == discipline
    ]
    return sorted(rows)


def series_ci(
    points: Iterable[SummaryPoint], metric: str, mix: str, discipline: str
) -> list[tuple[float, float, float]]:
    """Extract one mean ± CI figure line: (buffer, mean, ci95 half-width)."""
    rows = []
    for p in points:
        if p.mix != mix or p.discipline != discipline:
            continue
        if isinstance(p, SummaryPoint):
            rows.append(
                (
                    p.buffer_bdp,
                    float(p.summary.mean.as_dict()[metric]),
                    float(p.summary.ci95.as_dict()[metric]),
                )
            )
        else:
            rows.append((p.buffer_bdp, float(p.metrics.as_dict()[metric]), 0.0))
    return sorted(rows)
