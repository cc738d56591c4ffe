#!/usr/bin/env python3
"""Rewrite perfbench/baseline.json from one traced run per workload at seed 0.

Run from the repository root:

    python3 perfbench/baseline.py

For each workload it keeps the run context, the untraced and traced pass
times, the share of traced op time spent in each layer's own code, the
input properties the pass met and every per-layer metric.  For
elim-cones it also sets the pair bookkeeping (Buchberger's own loop,
the chain criterion and the interreduction) beside an upper bound on the
rational arithmetic (normal forms, content scaling and kernels).
"""

from __future__ import annotations

import json
import subprocess
import sys

import run


def main() -> int:
    baseline = {}
    for name in run.WORKLOAD_NAMES:
        subprocess.run(
            [sys.executable, str(run.HERE / "run.py"), "--workload", name, "--seed", "0", "--trace", "1"],
            cwd=run.ROOT, check=True, stdout=subprocess.DEVNULL, timeout=600,
        )
        record = json.loads((run.OUT / f"{name}-seed0-trace1.json").read_text(encoding="utf-8"))
        metrics = {key: m["value"] for key, m in record["result"]["metrics"].items()}
        entry = {
            "context": record["context"],
            "wall_s": record["wall_s"],
            "layer_self_share": record["layer_self_share"],
            "input_properties": record["input_properties"],
            "per_layer": metrics,
        }
        if name == "elim-cones":
            entry["pair_bookkeeping_vs_arithmetic_s"] = {
                "pair bookkeeping: elim.buchberger + chain_criterion + reduce_basis self_s": (
                    metrics["elim.buchberger.self_s"] + metrics["elim.chain_criterion.self_s"]
                    + metrics["elim.reduce_basis.self_s"]
                ),
                "arithmetic, at most: elim.normal_form + primitive + monic self_s + polyring.kernels.busy_s": (
                    metrics["elim.normal_form.self_s"] + metrics["elim.primitive.self_s"]
                    + metrics["elim.monic.self_s"] + metrics["polyring.kernels.busy_s"]
                ),
                "note": "normal_form's own time also holds its leading-term search, so the second "
                        "figure bounds the rational arithmetic from above",
            }
        baseline[name] = entry
    (run.HERE / "baseline.json").write_text(json.dumps(baseline, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
