"""Workload specs (workloads.json) and the inputs each seed draws from them."""

from __future__ import annotations

import json
import random
from pathlib import Path

DEFAULT_SEED = 0  # the seed that runs each spec as recorded
_TABLE = json.loads(Path(__file__).with_name("workloads.json").read_text())
WORKLOADS = _TABLE["workloads"]
PREDICTIONS = _TABLE["predictions"]


def draw_bands(rng: random.Random, num_leaves: int, num_bands: int,
               num_set: int) -> list[list[int]]:
    """Random valid bands: sorted, each at least one unset leaf apart.

    Band lengths are a random composition of num_set into num_bands parts;
    the spare unset leaves are spread over the num_bands + 1 gaps by stars
    and bars.
    """
    cuts = sorted(rng.sample(range(1, num_set), num_bands - 1))
    lengths = [b - a for a, b in zip([0] + cuts, cuts + [num_set])]
    spare = num_leaves - num_set - (num_bands - 1)
    bars = sorted(rng.sample(range(spare + num_bands), num_bands))
    bands = []
    for i, (bar, length) in enumerate(zip(bars, lengths)):
        # bar - i spare leaves, the earlier bands and one gap per band precede it
        start = (bar - i) + sum(lengths[:i]) + i
        bands.append([start, start + length - 1])
    return bands


def cli_spec(name: str, seed: int) -> dict:
    """The CLI spec of a CLI workload (or of a replay workload's source).

    Seed 0 is the spec as recorded.  Any other seed keeps every count and
    the number of set input bits, and draws band positions and the door.
    """
    workload = WORKLOADS[name]
    spec = dict(WORKLOADS[workload.get("source", name)]["spec"])
    if seed != DEFAULT_SEED:
        rng = random.Random(seed)
        num_leaves = 2 ** (spec["tree-qubits"] - 1)
        num_set = sum(b - a + 1 for a, b in spec["bands"])
        spec["bands"] = draw_bands(rng, num_leaves, len(spec["bands"]), num_set)
        spec["door"] = rng.randrange(2 ** spec["line-qubits"])
    return spec


def input_bits(spec: dict) -> list[bool]:
    """NAND input x_k per tree leaf: 1 inside a band, 0 elsewhere."""
    x = [False] * 2 ** (spec["tree-qubits"] - 1)
    for a, b in spec["bands"]:
        x[a:b + 1] = [True] * (b - a + 1)
    return x


def cli_argv(spec: dict, prefix: str, verify: bool) -> list[str]:
    argv = ["--prefix", prefix]
    for key, value in spec.items():
        if key == "bands":
            value = ";".join(f"{a},{b}" for a, b in value)
        argv += [f"--{key}", str(value)]
    return argv + ([] if verify else ["--no-verify"])
