"""Deterministic inputs for the campaign benchmark.

Writes, for one workload and one workload seed, the scenario JSON files the
program reads plus a manifest naming the instances of one pass. Ladder rungs
follow the H/W recipe of ROADMAP.md, built from the bundled
`lunar_campaign.json`: H is the horizon in days and W the departure-window
width; the launch window is range(W), LEO->LLO range(1, 1+W), LLO->LS
range(4, min(4+W, H-1)), and the payload is delivered at day H-1.

The scenario content is fixed by the recipe and the paper's seed study, so
every seed gives instances of the same size and difficulty. The workload seed
is the `run_pipeline` seed of the linreg instances, which draws their
held-out R^2 sample, and is recorded in the manifest. The NN study always
trains seeds 0-19: windows that start elsewhere can hold training seeds the
solver cannot finish in a run (seed 34 takes over 20 s and fits R^2 0.88).

Usage: python3 perfbench/generate.py WORKLOAD SEED OUT_DIR
"""

from __future__ import annotations

import copy
import json
import sys
from pathlib import Path

BUNDLED = Path(__file__).resolve().parent.parent / "src" / "leolift" / "data" \
    / "lunar_campaign.json"

# the paper's 20-trial NN seed study (acceptance criterion 3)
STUDY_FIRST_SEED = 0
STUDY_TRIALS = 20

WORKLOADS = {
    # name -> (surrogate, rungs as (H, W, export MPS))
    "nn-study": ("nn", None),
    # H40/W2 is the wide rung: cold two-phase root LP, assembly and export
    "ladder-linreg": ("linreg", [(8, 3, False), (10, 5, False), (40, 2, True)]),
}


def ladder_rung(base: dict, horizon: int, width: int) -> dict:
    """One H/W rung of the ladder; `base` is the bundled scenario document."""
    doc = copy.deepcopy(base)
    doc["name"] = f"lunar_H{horizon}_W{width}"
    doc["horizon_days"] = horizon
    windows = {("Earth", "LEO"): list(range(width)),
               ("LEO", "LLO"): list(range(1, 1 + width)),
               ("LLO", "LS"): list(range(4, min(4 + width, horizon - 1)))}
    for arc in doc["arcs"]:
        arc["window"] = windows[(arc["from"], arc["to"])]
    for dem in doc["demands"]:
        if dem["node"] == "LS":
            dem["time"] = horizon - 1
    return doc


def write_inputs(workload: str, seed: int, out_dir: Path) -> Path:
    """Write the scenarios and manifest of `workload`; returns the manifest."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    surrogate, rungs = WORKLOADS[workload]
    base = json.loads(BUNDLED.read_text())
    out_dir.mkdir(parents=True, exist_ok=True)

    def write(doc: dict) -> str:
        path = out_dir / f"{doc['name']}.json"
        path.write_text(json.dumps(doc, indent=1, sort_keys=True))
        return str(path)

    manifest = {"workload": workload, "seed": seed, "surrogate": surrogate}
    if rungs is None:
        manifest["study"] = {"scenario": write(base),
                             "first_seed": STUDY_FIRST_SEED,
                             "trials": STUDY_TRIALS}
    else:
        manifest["instances"] = [
            {"name": f"H{h}/W{w}", "scenario": write(ladder_rung(base, h, w)),
             "seed": seed,
             "export_mps": str(out_dir / f"H{h}_W{w}.mps") if export else None}
            for h, w, export in rungs]
    path = out_dir / f"manifest-{workload}.json"
    path.write_text(json.dumps(manifest, indent=1, sort_keys=True))
    return path


def warmup_scenario(out_dir: Path) -> str:
    """The bundled campaign, written for the set-up solve."""
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "warmup_lunar_campaign.json"
    path.write_text(BUNDLED.read_text())
    return str(path)


if __name__ == "__main__":
    if len(sys.argv) != 4:
        sys.exit(__doc__)
    print(write_inputs(sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])))
