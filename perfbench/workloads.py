"""The benchmark's workloads: inputs, CLI commands and output checks.

Every workload is a ``repro-bbr campaign`` closed loop: one CLI process at
a time, the next starting only after the previous one exits.  A *cycle*
runs the campaign once cold (into a fresh store) and once warm (the same
command again, which reads everything back from that store).  The
workload seed draws each cycle's inputs from a fixed pool, and the
reference files in ``reference/`` hold every pooled point's result as
computed at the commit that introduced the benchmark, so any seed's
outputs can be checked.  The draws change which points run, never how
many, so a cycle's cost does not depend on the seed.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

from harness import HERE

REFERENCE_DIR = HERE / "reference"

#: Relative tolerance for the deterministic substrates (fluid, analytic).
RTOL = 1e-9

ALL_MIXES = (
    "BBRv1", "BBRv1/BBRv2", "BBRv1/CUBIC", "BBRv1/RENO",
    "BBRv2", "BBRv2/CUBIC", "BBRv2/RENO",
)
DISCIPLINES = ("droptail", "red")


def close(a: float, b: float, rtol: float) -> bool:
    if isinstance(a, float) and isinstance(b, float) and math.isnan(a) and math.isnan(b):
        return True
    return a == b or abs(a - b) <= rtol * max(abs(a), abs(b))


@dataclass(frozen=True)
class Campaign:
    """A ``repro-bbr campaign`` workload over a pooled grid."""

    name: str
    substrate: str
    mixes: tuple[str, ...]
    buffer_pool: tuple[float, ...]
    buffers_per_cycle: int
    discipline_pool: tuple[str, ...]
    disciplines_per_cycle: int
    duration_s: float
    seed_pool: tuple[int, ...] = (1,)
    seeds_per_cycle: int = 1
    rtol: float = RTOL
    #: Pool workers (1 runs every point in the CLI process itself).
    workers: int = 1

    def draw(self, rng: random.Random) -> dict:
        return {
            "buffers": sorted(rng.sample(self.buffer_pool, self.buffers_per_cycle)),
            "disciplines": sorted(
                rng.sample(self.discipline_pool, self.disciplines_per_cycle)
            ),
            "seeds": sorted(rng.sample(self.seed_pool, self.seeds_per_cycle)),
        }

    def pool_inputs(self) -> dict:
        return {
            "buffers": list(self.buffer_pool),
            "disciplines": list(self.discipline_pool),
            "seeds": list(self.seed_pool),
        }

    def points(self, inputs: dict) -> list[tuple]:
        return [
            (mix, float(buffer), discipline, seed)
            for mix in self.mixes
            for buffer in inputs["buffers"]
            for discipline in inputs["disciplines"]
            for seed in inputs["seeds"]
        ]

    def command(self, inputs: dict, cycle_dir: Path, cpus: int) -> list[str]:
        """The ``repro-bbr`` arguments of one run, via a generated preset.

        The seed list reaches the CLI through a campaign preset (the
        ``--seeds`` flag only takes a count); JSON is valid YAML.
        """
        preset = cycle_dir / "campaign.yaml"
        preset.write_text(json.dumps({
            "name": self.name,
            "substrate": self.substrate,
            "seeds": inputs["seeds"],
            "duration_s": self.duration_s,
            "grid": {
                "mixes": list(self.mixes),
                "buffers_bdp": [float(b) for b in inputs["buffers"]],
                "disciplines": inputs["disciplines"],
            },
            "executor": {"workers": min(self.workers, cpus)},
        }))
        return ["campaign", "--preset", str(preset), "--store", str(cycle_dir / "store.jsonl")]

    @staticmethod
    def point_of(record: dict) -> tuple:
        meta = record.get("meta", {})
        return (meta.get("mix"), float(meta.get("buffer_bdp")), meta.get("discipline"),
                int(meta.get("seed")))

    def matches(self, got: dict, ref: dict) -> bool:
        metrics = got.get("metrics")
        if not isinstance(metrics, dict) or set(metrics) != set(ref["metrics"]):
            return False
        return all(close(metrics[k], ref["metrics"][k], self.rtol) for k in metrics)


WORKLOADS: dict[str, Campaign] = {
    w.name: w
    for w in (
        Campaign(
            name="fluid-sweep",
            substrate="fluid",
            mixes=ALL_MIXES,
            buffer_pool=(1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0),
            buffers_per_cycle=2,
            discipline_pool=DISCIPLINES,
            disciplines_per_cycle=2,
            duration_s=1.0,
        ),
        Campaign(
            name="emulation-sweep",
            substrate="emulation",
            mixes=("BBRv1", "BBRv2", "BBRv1/CUBIC"),
            buffer_pool=(1.0, 2.0, 4.0),
            buffers_per_cycle=2,
            discipline_pool=DISCIPLINES,
            disciplines_per_cycle=2,
            duration_s=1.0,
            seed_pool=tuple(range(1, 9)),
            seeds_per_cycle=2,
            rtol=0.0,
            workers=2,
        ),
        Campaign(
            name="analytic-sweep",
            substrate="analytic",
            mixes=("BBRv1", "BBRv2", "BBRv1/BBRv2"),
            buffer_pool=(1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0),
            buffers_per_cycle=1,
            discipline_pool=DISCIPLINES,
            disciplines_per_cycle=1,
            duration_s=1.0,
        ),
    )
}


def reference_path(name: str) -> Path:
    return REFERENCE_DIR / f"{name}.json"


def load_reference(name: str) -> dict[tuple, dict]:
    """Reference results of a workload's pool, keyed by point."""
    with reference_path(name).open() as handle:
        doc = json.load(handle)
    return {tuple(entry["point"]): entry for entry in doc["points"]}
