"""Golden identity of sweep points: scenario keys and stored meta.

Every grid point has exactly one identity, its content-hashed
``scenario_key``.  ``tests/data/point_identity.json`` records, for a grid
covering all three substrates, the dumbbell with ``short_rtt`` and
``whi_init_bdp``, heterogeneous parking-lot and multi-dumbbell topologies,
the churn axis and seed replication, the ``(coords, key)`` pairs
``grid_point_keys`` enumerates and the ``(key, meta)`` records
``run_campaign`` writes to a store.  Both must stay byte-identical: a moved
key orphans every stored campaign, a moved meta field breaks exports.

The analytic rows' ``analysis`` block is a computed result, not part of
the identity, so only its field names are compared.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.experiments import sweep
from repro.experiments.store import SweepStore

GOLDEN = Path(__file__).with_name("data") / "point_identity.json"

FLUID = dict(substrate="fluid", duration_s=0.2, dt=1e-3)
EMULATION = dict(substrate="emulation", duration_s=0.2)

#: name -> grid keywords shared by ``grid_point_keys`` and ``run_campaign``.
CASES: dict[str, dict] = {
    "fluid-dumbbell": dict(
        FLUID, mixes=["BBRv1", "BBRv1/RENO"], buffers_bdp=[1.0, 4.0],
        disciplines=["droptail", "red"], seeds=[1, 2],
    ),
    "fluid-short-rtt-whi": dict(
        FLUID, mixes=["BBRv2"], buffers_bdp=[2.0], disciplines=["droptail"],
        seeds=[1, 2], short_rtt=True, whi_init_bdp=2.0,
    ),
    "emulation-dumbbell": dict(
        EMULATION, mixes=["BBRv1", "BBRv1/CUBIC"], buffers_bdp=[1.0],
        disciplines=["droptail"], seeds=[1, 2],
    ),
    "emulation-sampling": dict(
        EMULATION, mixes=["BBRv2"], buffers_bdp=[2.0], disciplines=["red"],
        seeds=[1], short_rtt=True, whi_init_bdp=1.5,
        record_interval_s=0.02, scheduler="closure",
    ),
    "analytic": dict(
        substrate="analytic", duration_s=0.2, mixes=["BBRv1", "BBRv2"],
        buffers_bdp=[1.0, 4.0], disciplines=["droptail"], seeds=[1, 2],
    ),
    "fluid-parking-lot-hetero": dict(
        FLUID, mixes=["BBRv1"], buffers_bdp=[1.0], disciplines=["droptail"],
        seeds=[1, 2], topology="parking-lot", hops=2, cross_flows=1,
        hop_capacities=[100.0, 50.0], hop_delays=[0.004, 0.006],
        hop_disciplines=["red", "droptail"],
    ),
    "emulation-parking-lot-hetero": dict(
        EMULATION, mixes=["BBRv1"], buffers_bdp=[2.0], disciplines=["red"],
        seeds=[1, 2], topology="parking-lot", hops=2, cross_flows=1,
        hop_capacities=[80.0, 40.0],
    ),
    "emulation-multi-dumbbell": dict(
        EMULATION, mixes=["BBRv2"], buffers_bdp=[1.0], disciplines=["droptail"],
        seeds=[1], topology="multi-dumbbell", hops=2, cross_flows=1,
    ),
    "fluid-multi-dumbbell": dict(
        FLUID, mixes=["BBRv1"], buffers_bdp=[1.0], disciplines=["red"],
        seeds=[1, 2], topology="multi-dumbbell", hops=2, cross_flows=2,
    ),
    "emulation-poisson-pareto": dict(
        EMULATION, mixes=["BBRv1"], buffers_bdp=[1.0], disciplines=["droptail"],
        seeds=[1, 2], arrivals="poisson", flow_size_dist="pareto", load=0.4,
        flows=6,
    ),
    "fluid-poisson-pareto": dict(
        FLUID, mixes=["BBRv1"], buffers_bdp=[1.0], disciplines=["droptail"],
        seeds=[1, 2], arrivals="poisson", load=0.5, flows=5,
    ),
    "fluid-onoff": dict(
        FLUID, mixes=["BBRv2"], buffers_bdp=[2.0], disciplines=["droptail"],
        seeds=[1, 2], arrivals="onoff", flows=4,
    ),
    "emulation-onoff-fixed": dict(
        EMULATION, mixes=["BBRv1"], buffers_bdp=[1.0], disciplines=["red"],
        seeds=[2], arrivals="onoff", flow_size_dist="fixed", load=0.3, flows=4,
    ),
}


def _meta_identity(meta: dict) -> dict:
    out = dict(meta)
    if "analysis" in out:
        out["analysis"] = sorted(out["analysis"])
    return out


def capture(name: str, store_path: Path) -> dict:
    """The identity record of one case: planned keys and stored records."""
    axes = CASES[name]
    planned = [[coords, key] for coords, key in sweep.grid_point_keys(**axes)]
    sweep.clear_cache()
    store = SweepStore(store_path)
    try:
        result = sweep.run_campaign(store=store, **axes)
        assert result.ok, result.failures
        stored = sorted(
            [record["key"], _meta_identity(record["meta"])]
            for record in store.records()
        )
    finally:
        store.close()
        sweep.clear_cache()
    return {"grid_point_keys": planned, "store": stored}


def _canonical(obj) -> str:
    # ``json.dumps`` tells 1 from 1.0 and list order apart: byte equality.
    return json.dumps(obj, sort_keys=True)


@pytest.mark.parametrize("name", sorted(CASES))
def test_point_identity_matches_golden(name, tmp_path):
    golden = json.loads(GOLDEN.read_text())[name]
    current = capture(name, tmp_path / "store.jsonl")
    assert _canonical(current["grid_point_keys"]) == _canonical(golden["grid_point_keys"])
    assert _canonical(current["store"]) == _canonical(golden["store"])


def test_golden_covers_every_case():
    assert sorted(json.loads(GOLDEN.read_text())) == sorted(CASES)


class TestNumericSpellings:
    """Int and float spellings of one point are one point with one key."""

    def test_dumbbell_churn_point(self):
        ints = sweep.PointSpec(
            "BBRv1", 1, "droptail", substrate="emulation", duration_s=2, dt=1,
            arrivals="poisson", load=1, flows=4,
        ).normalized()
        floats = sweep.PointSpec(
            "BBRv1", 1.0, "droptail", substrate="emulation", duration_s=2.0, dt=1.0,
            arrivals="poisson", load=1.0, flows=4,
        ).normalized()
        assert ints == floats
        assert ints.key() == floats.key()
        assert _canonical(ints.meta()) == _canonical(floats.meta())

    def test_heterogeneous_hop_lists(self):
        axes = dict(topology="parking-lot", hops=2, substrate="fluid")
        ints = sweep.PointSpec(
            "BBRv1", 2, "droptail", hop_capacities=[100, 50], **axes
        ).normalized()
        floats = sweep.PointSpec(
            "BBRv1", 2.0, "droptail", hop_capacities=(100.0, 50.0), **axes
        ).normalized()
        assert ints.key() == floats.key()

    def test_python_api_grid_is_found_by_status_keys(self):
        axes = dict(mixes=["BBRv1"], disciplines=["droptail"], duration_s=1, dt=1e-3)
        assert sweep.grid_point_keys(buffers_bdp=[1, 4], **axes) == sweep.grid_point_keys(
            buffers_bdp=[1.0, 4.0], **axes
        )


class TestKeywords:
    """The sweep entry points accept exactly the axis keyword names."""

    def test_unknown_keyword_raises_type_error(self):
        with pytest.raises(TypeError):
            sweep.run_point("BBRv1", 1.0, "droptail", buffer=1.0)
        with pytest.raises(TypeError):
            sweep.run_sweep(mixes=["BBRv1"], substrates="fluid")
        with pytest.raises(TypeError):
            sweep.grid_point_keys(mixes=["BBRv1"], workers=2)

    @pytest.mark.parametrize("name", ["mix", "buffer_bdp", "discipline", "seed"])
    def test_grid_rejects_per_point_axes(self, name):
        with pytest.raises(TypeError, match=name):
            sweep.grid_point_keys(mixes=["BBRv1"], **{name: 1})
