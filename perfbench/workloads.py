"""Seeded workload configs and the output-correctness gate.

Seed 0 hands the program the shipped ``configs/*.json`` byte for byte.  A
non-zero seed varies physical parameters only (drive strength and rate,
field and coupling magnitudes) by at most 10 percent; sizes (``n_qubits``,
``n_steps``, node counts) stay fixed so timings stay comparable across seeds.

The ``nmr`` config is the same for every seed.  Its
``max_two_gate_deficit_composed`` verdict asks 1 - F <= 1e-12, while 1 - F is
rounding noise of either sign and about 1e-11 in size: the shipped
parameters land on -6.6e-12 and pass, but drive strengths 22.7, 23.9 and
26.1, or drive rates 1.9 and 2.1, exit with that verdict failed.  Varying
``nmr`` would make the benchmark fail on most seeds for a reason that is
not about speed, so the workload keeps the shipped parameters until that
tolerance is fixed in the program's configs.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

WORKLOADS = {
    "nmr": ("nmr",),
    "ising": ("ising",),
    "frame_checks": ("verify_transform", "rescale"),
}

# Relative tolerance for seed-0 metrics against the reference captured from
# the unmodified program: ROADMAP's floating-point noise of about 1e-12,
# absolute below magnitude 1.
REFERENCE_RTOL = 1e-12

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


def _jitter(rng: random.Random, value: float) -> float:
    return value * rng.uniform(0.9, 1.1)


def _vary(name: str, cfg: dict, rng: random.Random) -> dict:
    if name == "verify_transform":
        cfg["drive_strength"] = _jitter(rng, cfg["drive_strength"])
        cfg["drive_rate"] = _jitter(rng, cfg["drive_rate"])
    elif name == "rescale":
        cfg["drive_check"]["drive_strength"] = _jitter(rng, cfg["drive_check"]["drive_strength"])
    elif name == "ising":
        cfg["fields"] = [_jitter(rng, h) for h in cfg["fields"]]
        cfg["couplings"] = [[i, j, _jitter(rng, c)] for i, j, c in cfg["couplings"]]
    return cfg


def config_text(root: Path, name: str, seed: int) -> str:
    """The config the program receives for ``name`` at ``seed``."""
    shipped = (root / "configs" / f"{name}.json").read_text()
    if seed == 0 or name == "nmr":
        return shipped
    rng = random.Random(f"{name}:{seed}")
    return json.dumps(_vary(name, json.loads(shipped), rng), indent=2) + "\n"


def _close(value, ref) -> bool:
    if isinstance(ref, bool) or isinstance(value, bool) or not isinstance(ref, (int, float)):
        if isinstance(ref, list) and isinstance(value, list):
            return len(ref) == len(value) and all(map(_close, value, ref))
        return value == ref
    if not isinstance(value, (int, float)):
        return False
    return abs(value - ref) <= REFERENCE_RTOL * max(1.0, abs(ref))


def _finite(value) -> bool:
    if isinstance(value, list):
        return all(map(_finite, value))
    return not isinstance(value, float) or math.isfinite(value)


def check_result(name: str, seed: int, record: dict) -> str | None:
    """Why ``record`` (a parsed result.json) is wrong, or None if it is right.

    Every seed needs all verdicts passed and finite metrics with the
    reference's keys; seed 0 also needs each metric within REFERENCE_RTOL of
    the reference.
    """
    failed = sorted(k for k, v in record.get("verdicts", {}).items() if not v.get("passed"))
    if failed or record.get("passed") is not True:
        return f"verdicts failed: {', '.join(failed) or 'passed=false'}"
    metrics = record.get("metrics", {})
    reference = json.loads((REFERENCE_DIR / f"{name}.json").read_text())
    if sorted(metrics) != sorted(reference):
        return f"metric keys differ from the reference: {sorted(set(metrics) ^ set(reference))}"
    bad = sorted(k for k, v in metrics.items() if not _finite(v))
    if bad:
        return f"non-finite metrics: {', '.join(bad)}"
    if seed == 0:
        off = sorted(k for k, v in metrics.items() if not _close(v, reference[k]))
        if off:
            return "metrics off the reference: " + ", ".join(
                f"{k}={metrics[k]!r} (reference {reference[k]!r})" for k in off
            )
    return None
