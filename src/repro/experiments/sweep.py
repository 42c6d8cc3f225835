"""Parameter-sweep engine for the aggregate-validation figures (Figs. 6-10, 13-17).

A sweep runs every combination of CCA mix, buffer size and queue discipline
on a chosen substrate ("fluid" or "emulation"), computes the aggregate
metrics of :mod:`repro.metrics.aggregate`, and returns tidy rows.  Because
the five aggregate figures of the paper all derive from the *same* runs,
sweep results are cached at two levels:

* an in-process cache keyed by each point's one identity, the
  content-hashed ``scenario_key`` of its :class:`PointSpec` (which covers
  the scenario seed and the emulator's sampling parameters), and
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

import importlib
import math
from contextlib import AbstractContextManager, nullcontext
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from collections.abc import Iterable, Sequence
from typing import Any

from ..config import ARRIVAL_PROCESSES, SIZE_DISTRIBUTIONS, ScenarioConfig
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

#: The module each substrate's points run on.  This module imports none of
#: them (nor numpy): a grid served from the store loads no substrate, and a
#: computed point loads its own on first use.
_SUBSTRATE_MODULES = {
    "fluid": "repro.core.simulator",
    "emulation": "repro.emulation.runner",
    "analytic": "repro.analysis",
}


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


_CACHE: dict[str, SweepPoint] = {}


def clear_cache() -> None:
    """Drop all cached sweep points (mainly for tests)."""
    _CACHE.clear()


#: Defaults of the churn axis once ``arrivals`` switches it on (kept in one
#: place so the key, the store meta and the scenario always agree).
DEFAULT_CHURN_SIZE_DIST = "pareto"
DEFAULT_CHURN_ONOFF_SIZE_DIST = "infinite"
DEFAULT_CHURN_LOAD = 0.5
DEFAULT_CHURN_FLOWS = 100


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


@dataclass(frozen=True)
class PointSpec:
    """The identity of one sweep point: every axis that shapes its result.

    A point has exactly one identity, :meth:`key` — the content-addressed
    :func:`~repro.experiments.store.scenario_key` of its scenario — which
    keys the in-process cache and the persistent store alike.  The fields
    are the scenario-shaping axes with the names and defaults of the
    :func:`run_point` keywords, in the canonical order that the schema
    fingerprint of ``repro-bbr check`` records.  Specs are built through
    :meth:`normalized`; :meth:`config`, :meth:`key` and :meth:`meta` assume
    a normalized spec.
    """

    mix: str
    buffer_bdp: float
    discipline: str
    substrate: str = "fluid"
    short_rtt: bool = False
    duration_s: float = 5.0
    dt: float = scenarios.SWEEP_DT
    whi_init_bdp: float | None = None
    seed: int = 1
    record_interval_s: float = DEFAULT_RECORD_INTERVAL_S
    scheduler: str = DEFAULT_SCHEDULER
    topology: str | None = None
    hops: int = 3
    cross_flows: int = 1
    hop_capacities: tuple[float, ...] | None = None
    hop_delays: tuple[float, ...] | None = None
    hop_disciplines: tuple[str, ...] | None = None
    arrivals: str | None = None
    flow_size_dist: str | None = None
    load: float | None = None
    flows: int | None = None

    def normalized(self) -> PointSpec:
        """Validate the point and return its canonical spelling.

        This is the one place a point is validated: an unknown substrate,
        churn on the analytic substrate or on a multi-bottleneck preset,
        ``short_rtt`` off the dumbbell and malformed per-hop lists raise
        :class:`ValueError`.  Canonicalisation resolves the churn defaults,
        labels a point with per-hop disciplines by their composite,
        collapses the ``"dumbbell"`` preset onto the legacy grid (where
        ``hops``/``cross_flows`` mean nothing) and coerces the numeric
        axes, so ``buffer_bdp=1`` and ``buffer_bdp=1.0`` are one point with
        one key.
        """
        if self.substrate not in SUBSTRATES:
            raise ValueError(f"unknown substrate {self.substrate!r}")
        arrivals, flow_size_dist, load, flows = self._churn_axis()
        if self.substrate == "analytic" and arrivals is not None:
            raise ValueError(
                "the analytic substrate predicts steady states; churn workloads "
                "(arrivals/flow_size_dist/load/flows) have no equilibrium to analyze"
            )
        topology = None if self.topology in (None, "dumbbell") else self.topology
        # On the legacy dumbbell grid per-hop lists have nothing to apply
        # to; validate_hop_axis rejects them there.
        hop_capacities, hop_delays, hop_disciplines = scenarios.validate_hop_axis(
            self.hops, self.hop_capacities, self.hop_delays, self.hop_disciplines,
            preset=topology or "dumbbell",
        )
        if topology is not None and arrivals is not None:
            raise ValueError(
                "the churn axis (arrivals/flow_size_dist/load/flows) is only "
                "defined for the dumbbell grid, not for multi-bottleneck "
                "topology presets"
            )
        if topology is not None and self.short_rtt:
            raise ValueError("short_rtt is only defined for the dumbbell grid")
        return replace(
            self,
            buffer_bdp=float(self.buffer_bdp),
            # With per-hop disciplines the scenario ignores the swept
            # discipline value, so rows, meta and keys carry the per-hop
            # composite (e.g. "red/droptail/red") instead of a misleading
            # grid label: identical scenarios alias onto one cached/stored
            # point no matter which grid label they were requested under.
            discipline=(
                self.discipline if hop_disciplines is None else "/".join(hop_disciplines)
            ),
            duration_s=float(self.duration_s),
            dt=float(self.dt),
            whi_init_bdp=None if self.whi_init_bdp is None else float(self.whi_init_bdp),
            seed=int(self.seed),
            record_interval_s=float(self.record_interval_s),
            topology=topology,
            hops=int(self.hops) if topology is not None else 0,
            cross_flows=int(self.cross_flows) if topology is not None else 0,
            hop_capacities=hop_capacities,
            hop_delays=hop_delays,
            hop_disciplines=hop_disciplines,
            arrivals=arrivals,
            flow_size_dist=flow_size_dist,
            load=load,
            flows=flows,
        )

    def _churn_axis(self) -> tuple[str | None, str | None, float | None, int | None]:
        """Validate and default the churn axis (``--arrivals/--flow-size-dist/...``).

        ``arrivals=None`` is the legacy long-lived-flow grid: the other three
        values are meaningless there and must be unset (so a stray ``--load``
        cannot silently do nothing).  With ``arrivals`` set, unset values are
        resolved to their defaults — on/off sources default to long-lived
        (``"infinite"``) sizes, arrival processes to the heavy-tailed bounded
        Pareto — so points alias identically whether the caller spelled the
        default out or not.
        """
        arrivals, flow_size_dist, load, flows = (
            self.arrivals, self.flow_size_dist, self.load, self.flows
        )
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

    def config(self) -> ScenarioConfig:
        """The scenario this point runs."""
        common = dict(
            buffer_bdp=self.buffer_bdp,
            discipline=self.discipline,
            duration_s=self.duration_s,
            dt=self.dt,
            whi_init_bdp=self.whi_init_bdp,
            seed=self.seed,
        )
        if self.arrivals is not None:
            assert self.flow_size_dist is not None and self.load is not None
            assert self.flows is not None
            return scenarios.churn_scenario(
                self.mix,
                num_flows=self.flows,
                arrivals=self.arrivals,
                load=self.load,
                size_dist=self.flow_size_dist,
                short_rtt=self.short_rtt,
                **common,
            )
        if self.topology is not None:
            return scenarios.topology_scenario(
                self.topology,
                mix=self.mix,
                hops=self.hops,
                cross_flows=self.cross_flows,
                hop_capacities=self.hop_capacities,
                hop_delays=self.hop_delays,
                hop_disciplines=self.hop_disciplines,
                **common,
            )
        return scenarios.aggregate_scenario(self.mix, short_rtt=self.short_rtt, **common)

    def key(self) -> str:
        """The point's identity: its store key, which also keys the cache.

        Fluid and analytic seed replicas of a seed-free scenario share one
        key, and so do points differing only in the emulator's sampling
        parameters off the emulation substrate (see
        :func:`~repro.experiments.store.scenario_key`).
        """
        return scenario_key(
            _point_config(self), self.substrate, self.record_interval_s, self.scheduler
        )

    def meta(self) -> dict[str, Any]:
        """The human-readable coordinates stored with the point's record."""
        meta: dict[str, Any] = {
            "mix": self.mix,
            "buffer_bdp": self.buffer_bdp,
            "discipline": self.discipline,
            "substrate": self.substrate,
            "short_rtt": self.short_rtt,
            "duration_s": self.duration_s,
            "dt": self.dt,
            "whi_init_bdp": self.whi_init_bdp,
            "seed": self.seed,
        }
        if self.topology is not None:
            meta["topology"] = self.topology
            meta["hops"] = self.hops
            meta["cross_flows"] = self.cross_flows
            for name in ("hop_capacities", "hop_delays", "hop_disciplines"):
                values = getattr(self, name)
                if values is not None:
                    meta[name] = list(values)
        if self.arrivals is not None:
            meta["arrivals"] = self.arrivals
            meta["flow_size_dist"] = self.flow_size_dist
            meta["load"] = self.load
            meta["flows"] = self.flows
        if self.substrate == "emulation":
            meta["record_interval_s"] = self.record_interval_s
            meta["scheduler"] = self.scheduler
        return meta


# Scenario construction, keying and lockstep integration go through these
# module-level names so profilers that wrap entry points from outside the
# package (see ``perfbench/layers.py``) can attribute them to their layers.
def _point_config(spec: PointSpec) -> ScenarioConfig:
    """Build one point's scenario (:meth:`PointSpec.config`)."""
    return spec.config()


def _cache_key(spec: PointSpec) -> str:
    """One point's cache and store key (:meth:`PointSpec.key`)."""
    return spec.key()


def simulate_many(configs: Sequence[ScenarioConfig]) -> list:
    """Lockstep integration of a fluid chunk (:func:`repro.core.simulator.simulate_many`)."""
    from ..core.simulator import simulate_many as integrate

    return integrate(configs)


@dataclass(frozen=True)
class GridSpec:
    """A sweep grid: mixes x buffers x disciplines x seeds around one base point.

    ``base`` carries every other axis; its own mix, buffer, discipline and
    seed are placeholders.  ``seeds=None`` is the single-seed grid (seed 1,
    :class:`SweepPoint` results); a seed tuple replicates every combination
    and yields :class:`SummaryPoint` results.
    """

    mixes: tuple[str, ...]
    buffers_bdp: tuple[float, ...]
    disciplines: tuple[str, ...]
    seeds: tuple[int, ...] | None
    base: PointSpec

    @classmethod
    def build(
        cls,
        mixes: Iterable[str] | None = None,
        buffers_bdp: Iterable[float] | None = None,
        disciplines: Iterable[str] | None = None,
        seeds: int | Sequence[int] | None = None,
        **axes: Any,
    ) -> GridSpec:
        """Validate a grid spelled as :func:`run_sweep` keywords.

        ``axes`` are :class:`PointSpec` fields; the per-point ones are
        spelled by the plural grid axes instead, so ``mix``, ``buffer_bdp``,
        ``discipline`` and ``seed`` raise :class:`TypeError` like any other
        unknown keyword.  Unset grid axes default to the paper's grid.
        """
        per_point = sorted({"mix", "buffer_bdp", "discipline", "seed"} & set(axes))
        if per_point:
            raise TypeError(
                f"unexpected keyword argument(s) {', '.join(per_point)}; a grid "
                "is spelled by mixes/buffers_bdp/disciplines/seeds"
            )
        base = PointSpec(mix="", buffer_bdp=0.0, discipline="", **axes).normalized()
        disciplines = tuple(disciplines if disciplines is not None else scenarios.DISCIPLINES)
        if base.hop_disciplines is not None:
            # The per-hop list fixes every hop's discipline, so sweeping the
            # discipline axis would label identical runs droptail *and* red.
            if len(disciplines) > 1:
                raise ValueError(
                    "hop_disciplines fixes every hop's queue discipline; restrict "
                    "the sweep to a single disciplines value (e.g. --disciplines "
                    "droptail) instead of sweeping the discipline axis"
                )
            # Label the grid's single discipline slot by what actually runs.
            disciplines = (base.discipline,)
        return cls(
            mixes=tuple(mixes if mixes is not None else scenarios.CCA_MIXES),
            buffers_bdp=tuple(
                float(b)
                for b in (buffers_bdp if buffers_bdp is not None else scenarios.BUFFER_SWEEP_BDP)
            ),
            disciplines=disciplines,
            seeds=tuple(_seed_list(seeds)) if seeds is not None else None,
            base=base,
        )

    def combos(self) -> list[list[PointSpec]]:
        """Each (discipline, mix, buffer) combination as its seed replicas."""
        seeds = self.seeds if self.seeds is not None else (1,)
        return [
            [
                replace(self.base, mix=mix, buffer_bdp=buffer_bdp, discipline=discipline, seed=seed)
                for seed in seeds
            ]
            for discipline in self.disciplines
            for mix in self.mixes
            for buffer_bdp in self.buffers_bdp
        ]

    def points(self) -> list[PointSpec]:
        """Every grid point, in (discipline, mix, buffer, seed) order."""
        return [spec for combo in self.combos() for spec in combo]


def _sweep_point(
    spec: PointSpec,
    metrics: AggregateMetrics,
    runtime: dict | None = None,
    analysis: dict | None = None,
) -> SweepPoint:
    return SweepPoint(
        mix=spec.mix,
        buffer_bdp=spec.buffer_bdp,
        discipline=spec.discipline,
        substrate=spec.substrate,
        metrics=metrics,
        seed=spec.seed,
        runtime=runtime,
        analysis=analysis,
    )


def _summary_point(replicas: list[PointSpec], points: list[SweepPoint]) -> SummaryPoint:
    """Aggregate one combination's computed seed replicas."""
    spec = replicas[0]
    return SummaryPoint(
        mix=spec.mix,
        buffer_bdp=spec.buffer_bdp,
        discipline=spec.discipline,
        substrate=spec.substrate,
        summary=summarize_metrics([p.metrics for p in points]),
        seeds=tuple(s.seed for s in replicas),
    )


def _put(
    store: SweepStore,
    key: str,
    spec: PointSpec,
    point: SweepPoint,
    extra_meta: dict | None = None,
) -> None:
    """Persist one computed point under its key with its meta."""
    meta = spec.meta()
    if point.analysis is not None:
        meta["analysis"] = point.analysis
    if extra_meta:
        meta.update(extra_meta)
    store.put(key, point.metrics, meta=meta, runtime=point.runtime)


def _compute(spec: PointSpec) -> SweepPoint:
    """Run one point on its substrate, capturing its runtime block."""
    config = _point_config(spec)
    analysis_block: dict | None = None
    with RuntimeCapture() as rt:
        if spec.substrate == "analytic":
            # Importing the analysis layer needs only numpy; it loads
            # scipy itself on the first numerical fallback, so the
            # simulation substrates never pay for it.
            from .. import analysis as _analysis

            prediction = _analysis.analyze_scenario(config)
            metrics = prediction.metrics()
            analysis_block = prediction.as_meta()
            counters = {"flows": config.num_flows}
        else:
            if spec.substrate == "fluid":
                from ..core.simulator import FluidSimulator

                sim = FluidSimulator(config)
                trace = sim.run()
                counters = dict(sim.runtime)
            else:
                from ..emulation.runner import EmulationRunner

                runner = EmulationRunner(
                    config, record_interval_s=spec.record_interval_s, scheduler=spec.scheduler
                )
                trace = runner.run()
                counters = runner.runtime_counters()
            metrics = aggregate_metrics(trace)
    return _sweep_point(spec, metrics, runtime=rt.block(counters), analysis=analysis_block)


def _run_spec(spec: PointSpec, use_cache: bool, store: SweepStore | None) -> SweepPoint:
    """Serve one point from the cache or store, or compute and persist it."""
    if not use_cache and store is None:
        # Pool workers: the parent keys, caches and persists the result.
        return _compute(spec)
    key = _cache_key(spec)
    if use_cache and key in _CACHE:
        return _CACHE[key]
    metrics = store.get(key) if store is not None else None
    if metrics is not None:
        point = _sweep_point(spec, metrics)
    else:
        point = _compute(spec)
        if store is not None:
            _put(store, key, spec, point)
    if use_cache:
        _CACHE[key] = point
    return point


def run_point(
    mix: str,
    buffer_bdp: float,
    discipline: str,
    *,
    seeds: int | Sequence[int] | None = None,
    use_cache: bool = True,
    store: SweepStore | str | bool | None = None,
    **axes: Any,
) -> SweepPoint | SummaryPoint:
    """Run (or fetch from cache/store) a single sweep point.

    ``axes`` are the remaining :class:`PointSpec` fields (``substrate``,
    ``short_rtt``, ``duration_s``, ``dt``, ``whi_init_bdp``, ``seed``,
    ``record_interval_s``, ``scheduler`` and the topology and churn axes);
    any other keyword raises :class:`TypeError`.

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
    spec = PointSpec(mix, buffer_bdp, discipline, **axes).normalized()
    store = resolve_store(store)
    if seeds is None:
        return _run_spec(spec, use_cache, store)
    replicas = [replace(spec, seed=seed) for seed in _seed_list(seeds)]
    return _summary_point(replicas, [_run_spec(s, use_cache, store) for s in replicas])


def _task_args(spec: PointSpec) -> tuple[tuple, dict[str, Any]]:
    # Executor tasks run ``run_point`` on the spec's fields.  The parent
    # owns all cache and store writes; workers must not open (or pick up
    # via REPRO_STORE) the store file.
    return (), {**asdict(spec), "use_cache": False, "store": False}


def _describe(spec: PointSpec) -> str:
    return (
        f"mix={spec.mix!r}, buffer_bdp={spec.buffer_bdp}, "
        f"discipline={spec.discipline!r}, seed={spec.seed}"
    )


def _tracing(trace: str | Path | None) -> AbstractContextManager:
    """Route telemetry for a whole grid to the span log ``trace``.

    Workers self-enable via the env var the context manager sets.
    """
    return TELEMETRY.tracing(trace) if trace is not None else nullcontext()


def _run_grid(
    grid: GridSpec,
    workers: int | None = None,
    store: SweepStore | str | bool | None = None,
    executor: ExecutorPolicy | None = None,
    retry_failed: bool = True,
    prune_analytic: bool = False,
    shard_index: int | None = None,
    shard_count: int | None = None,
) -> tuple[list[SweepPoint] | list[SummaryPoint], list[CampaignFailure]]:
    """Shared grid engine behind :func:`run_sweep` and :func:`run_campaign`.

    Returns ``(points, failures)``; in the default ``on_failure="raise"``
    policy a non-empty failure list raises :class:`SweepPointError` instead
    of returning, after the rest of the grid has completed and persisted.
    """
    substrate = grid.base.substrate
    shard_index, shard_count = validate_shard(shard_index, shard_count)
    if prune_analytic and substrate == "emulation":
        raise ValueError(
            "prune_analytic applies to the fluid and analytic substrates; the "
            "trajectory-equivalence certificate is proven for the reduced "
            "fluid model, not the packet emulator"
        )
    store = resolve_store(store)
    keys: dict[PointSpec, str] = {}
    exec_failures: list[PointFailure] = []
    for spec in grid.points():
        try:
            keys[spec] = _cache_key(spec)
        except Exception as exc:
            # A point whose scenario cannot be built has no key: report it
            # as a failed grid point instead of aborting the whole grid.
            error = f"{type(exc).__name__}: {exc}"
            exec_failures.append(PointFailure(task=spec, error=error, attempts=0))
    tasks = list(keys)
    if shard_count is not None:
        # Deterministic grid partitioning: this process takes only the
        # points whose scenario key hashes into its shard, so K hosts can
        # split one grid and ``store merge`` reassembles the result set.
        tasks = [spec for spec in tasks if shard_of(keys[spec], shard_count) == shard_index]

    results: dict[PointSpec, SweepPoint] = {}
    pending: list[PointSpec] = []
    pending_keys: set[str] = set()
    duplicates: list[PointSpec] = []
    for spec in tasks:
        key = keys[spec]
        if key in _CACHE:
            results[spec] = _CACHE[key]
            continue
        if key in pending_keys:
            # Same key as an already-pending task (fluid seed replicas
            # alias deliberately): compute once, share the result.
            duplicates.append(spec)
            continue
        if store is not None:
            metrics = store.get(key)
            if metrics is not None:
                results[spec] = _CACHE[key] = _sweep_point(spec, metrics)
                continue
        pending.append(spec)
        pending_keys.add(key)

    # Analytic pre-pass pruner: group the pending points whose buffer
    # provably never binds (see :func:`repro.analysis.buffer_never_binds`).
    # Within a group the trajectory — and hence every metric except the
    # occupancy normalisation — is independent of the buffer size, so one
    # member (the *primary*) is computed and the rest become aliases,
    # materialised from the primary's result after the dispatch below.
    alias_of: dict[PointSpec, PointSpec] = {}
    if prune_analytic and pending:
        # The certificate is closed-form arithmetic, and importing the
        # analysis layer loads no scipy (only its numerical fallback does).
        from .. import analysis as _analysis

        def _certificate(spec: PointSpec) -> str | None:
            config = _point_config(spec)
            if not _analysis.buffer_never_binds(config):
                return None
            # All group members share the scenario up to the buffer size;
            # key the group by the buffer-free scenario.
            return scenario_key(
                config.with_buffer(float("inf")), substrate,
                spec.record_interval_s, spec.scheduler,
            )

        certified: dict[str, list[PointSpec]] = {}
        kept: list[PointSpec] = []
        for spec in pending:
            signature = _certificate(spec)
            if signature is None:
                kept.append(spec)
            else:
                certified.setdefault(signature, []).append(spec)
        # A point already resolved (cache/store) with the same certificate
        # can serve as the group's primary without computing anything.
        # (Infinite-buffer rows are excluded: their occupancy column cannot
        # be rescaled onto a finite alias.)
        resolved: dict[str, PointSpec] = {}
        for spec in results:
            if math.isinf(spec.buffer_bdp):
                continue
            signature = _certificate(spec)
            if signature is not None and signature not in resolved:
                resolved[signature] = spec
        for signature, group in certified.items():
            primary = resolved.get(signature)
            if primary is None:
                # Prefer the smallest finite buffer: its occupancy column
                # rescales to every larger alias without extrapolation.
                primary = min(group, key=lambda s: (math.isinf(s.buffer_bdp), s.buffer_bdp))
                kept.append(primary)
            for spec in group:
                if spec != primary:
                    alias_of[spec] = primary
        pending = kept

    def persist(spec: PointSpec, point: SweepPoint, extra_meta: dict | None = None) -> None:
        """Land one computed point: in-process cache + persistent store."""
        results[spec] = _CACHE[keys[spec]] = point
        if store is not None:
            _put(store, keys[spec], spec, point, extra_meta)

    # The executor policy: an explicit ``executor`` wins, with ``workers``
    # filling its pool size when the policy leaves it unset; the bare
    # ``workers`` argument is shorthand for a default-policy pool.
    policy = executor if executor is not None else ExecutorPolicy(workers=workers)
    if executor is not None and policy.workers is None and workers is not None:
        policy = replace(policy, workers=workers)

    # ``retry_failed=False`` resume semantics: points whose last attempt is
    # recorded as a *failure* row are reported again without recomputation,
    # so a warm re-run after a partial campaign recomputes nothing.
    if store is not None and not retry_failed and pending:
        recorded = {rec["key"]: rec for rec in store.failures()}
        if recorded:
            fresh: list[PointSpec] = []
            for spec in pending:
                record = recorded.get(keys[spec])
                if record is None:
                    fresh.append(spec)
                else:
                    exec_failures.append(
                        PointFailure(
                            task=spec,
                            error=str(record.get("error") or "recorded failure"),
                            attempts=0,
                        )
                    )
            pending = fresh

    def execute(batch: list[PointSpec]) -> None:
        report = ResilientExecutor(policy).run(
            batch, run_point, _task_args, on_result=persist, describe=_describe
        )
        exec_failures.extend(report.failures)

    if pending and policy.pooled:
        # Load the substrate and the trace metrics before the pool forks, so
        # every worker inherits them instead of importing them itself.
        importlib.import_module(_SUBSTRATE_MODULES[substrate])
        for name in ("churn", "fairness", "traces"):
            importlib.import_module(f"repro.metrics.{name}")
        execute(pending)
    elif pending and substrate == "fluid":
        # Batched path: stack the chunk into one lockstep integration (the
        # big single-core win).  A chunk that fails falls back to per-point
        # execution under the executor policy, which isolates and reports
        # the offending point(s) without discarding the healthy ones.
        for chunk_start in range(0, len(pending), BATCH_CHUNK):
            chunk = pending[chunk_start : chunk_start + BATCH_CHUNK]
            try:
                configs = [_point_config(spec) for spec in chunk]
                with RuntimeCapture() as capture:
                    traces = simulate_many(configs)
            except Exception:
                execute(chunk)
                continue
            # Lockstep chunks share one integration, so the measured cost
            # is amortised evenly over the chunk's points (``shared=``).
            chunk_runtime = capture.block(
                {
                    "steps": int(round(grid.base.duration_s / grid.base.dt)) + 1,
                    "lockstep": len(chunk),
                },
                shared=len(chunk),
            )
            for spec, point_trace in zip(chunk, traces, strict=True):
                persist(
                    spec,
                    _sweep_point(spec, aggregate_metrics(point_trace), runtime=chunk_runtime),
                )
    elif pending:
        # Serial path: the executor runs each point inline (retries,
        # timeouts and skip semantics still apply; no pool is spawned).
        execute(pending)

    # Materialise pruned aliases from their primaries: same metrics with
    # the occupancy column rescaled to the alias's own buffer, persisted
    # with a ``pruned`` meta block recording the aliasing.  A result row
    # supersedes any stale failure row for the alias in the store.
    for spec, primary in alias_of.items():
        source = results.get(primary)
        if source is None:
            # The primary itself failed or was skipped; the alias simply
            # stays uncomputed (and unrecorded) this run.
            continue
        occupancy = source.metrics.buffer_occupancy_percent
        if math.isinf(spec.buffer_bdp):
            occupancy = 0.0
        elif not math.isnan(occupancy):
            occupancy = min(100.0, occupancy * (primary.buffer_bdp / spec.buffer_bdp))
        TELEMETRY.count("sweep.pruned_points")
        persist(
            spec,
            _sweep_point(
                spec,
                replace(source.metrics, buffer_occupancy_percent=occupancy),
                analysis=source.analysis,
            ),
            extra_meta={
                "pruned": {
                    "aliased_to": keys[primary],
                    "primary_buffer_bdp": primary.buffer_bdp,
                    "reason": (
                        "buffer never binds: inflight is provably below every "
                        "buffer in the group, so the trajectory is identical "
                        "up to occupancy normalisation"
                    ),
                }
            },
        )

    for spec in duplicates:
        # A duplicate's primary may itself have failed; it then simply has
        # no result to share.
        if keys[spec] in _CACHE:
            results[spec] = _CACHE[keys[spec]]

    failures: list[CampaignFailure] = []
    for failure in exec_failures:
        spec = failure.task
        failures.append(
            CampaignFailure(
                mix=spec.mix,
                buffer_bdp=spec.buffer_bdp,
                discipline=spec.discipline,
                substrate=spec.substrate,
                seed=spec.seed,
                error=failure.error,
                attempts=failure.attempts,
            )
        )
        if store is not None and failure.attempts > 0:
            # Freshly attempted failures are recorded (axis combo + error)
            # so warm re-runs can skip them; attempts == 0 means the row is
            # already in the store (served by retry_failed=False above) or
            # the point has no key to record it under.
            store.put_failure(keys[spec], failure.error, meta=spec.meta())
    if failures and policy.on_failure == "raise":
        first = failures[0]
        raise SweepPointError(
            first.mix, first.buffer_bdp, first.discipline, first.seed,
            error=first.error,
        )

    if grid.seeds is None:
        return [results[spec] for spec in grid.points() if spec in results], failures
    summaries: list[SummaryPoint] = []
    for combo in grid.combos():
        replicas = [spec for spec in combo if spec in results]
        if replicas:
            summaries.append(_summary_point(replicas, [results[s] for s in replicas]))
    return summaries, failures


def run_sweep(
    mixes: Iterable[str] | None = None,
    buffers_bdp: Iterable[float] | None = None,
    disciplines: Iterable[str] | None = None,
    **kwargs: Any,
) -> list[SweepPoint] | list[SummaryPoint]:
    """Run the full (or a reduced) aggregate-validation sweep.

    Takes the keywords of :func:`run_campaign`: the execution keywords
    listed there, and every other keyword is an axis shared by all grid
    points (a :class:`PointSpec` field such as ``substrate``,
    ``duration_s`` or ``topology``).

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
    return run_campaign(mixes, buffers_bdp, disciplines, **kwargs).points


def run_campaign(
    mixes: Iterable[str] | None = None,
    buffers_bdp: Iterable[float] | None = None,
    disciplines: Iterable[str] | None = None,
    *,
    seeds: int | Sequence[int] | None = None,
    workers: int | None = None,
    store: SweepStore | str | bool | None = None,
    executor: ExecutorPolicy | None = None,
    retry_failed: bool = True,
    trace: str | Path | None = None,
    prune_analytic: bool = False,
    shard_index: int | None = None,
    shard_count: int | None = None,
    **axes: Any,
) -> CampaignResult:
    """Run a sweep grid and return points *and* structured failures.

    Identical to :func:`run_sweep` (same axes, caches, store and executor
    policy) but returns a :class:`CampaignResult` whose ``failures`` list
    reports every grid point the executor gave up on — the service-grade
    entry point: with ``executor=ExecutorPolicy(on_failure="skip", ...)``
    a campaign survives crashing or failing points, completes the rest of
    the grid, and reports what failed instead of raising.  ``axes`` build
    the grid's base :class:`PointSpec` (see :meth:`GridSpec.build`).
    """
    grid = GridSpec.build(mixes, buffers_bdp, disciplines, seeds, **axes)
    with _tracing(trace):
        points, failures = _run_grid(
            grid,
            workers=workers,
            store=store,
            executor=executor,
            retry_failed=retry_failed,
            prune_analytic=prune_analytic,
            shard_index=shard_index,
            shard_count=shard_count,
        )
    return CampaignResult(points=points, failures=failures)


def grid_point_keys(
    mixes: Iterable[str] | None = None,
    buffers_bdp: Iterable[float] | None = None,
    disciplines: Iterable[str] | None = None,
    *,
    seeds: int | Sequence[int] | None = None,
    shard_index: int | None = None,
    shard_count: int | None = None,
    **axes: Any,
) -> list[tuple[dict, str]]:
    """Enumerate a grid's ``(coords, scenario_key)`` pairs without running it.

    Powers ``repro-bbr status``: the same :class:`GridSpec` enumeration and
    key derivation as :func:`run_campaign`, but no point is computed.
    Tasks that alias onto one scenario key (fluid seed replicas of
    seed-free scenarios) are deduplicated — the returned list has one
    entry per *distinct* stored record the grid would produce, so
    ``done + failed + remaining`` adds up against the store.
    ``shard_index``/``shard_count`` restrict the enumeration to one shard,
    mirroring the partitioning of :func:`run_sweep`.
    """
    grid = GridSpec.build(mixes, buffers_bdp, disciplines, seeds, **axes)
    shard_index, shard_count = validate_shard(shard_index, shard_count)
    out: list[tuple[dict, str]] = []
    seen: set[str] = set()
    for spec in grid.points():
        key = _cache_key(spec)
        if key in seen:
            continue
        seen.add(key)
        if shard_count is not None and shard_of(key, shard_count) != shard_index:
            continue
        coords = {
            "mix": spec.mix,
            "buffer_bdp": spec.buffer_bdp,
            "discipline": spec.discipline,
            "substrate": spec.substrate,
            "seed": spec.seed,
        }
        out.append((coords, key))
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
