"""Regenerate ``digests.json``: the expected cluster-partition digest of
every workload's corpus variants.

    python3 perfbench/pin.py

Every variant of every workload runs once through
``run_dedup_pipeline`` one-shot (the resume workload's timed calls must
reproduce the same partition from their checkpoints), and the file is
written afresh.  Run it only when the generator or the intended
clustering semantics change; the oracle cross-check in
``test_perfbench.py`` ties the digest to the sequential reference on
small corpora of the same generator.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from perfbench import checks, inputs  # noqa: E402
from perfbench.run import WORK, _init_ray  # noqa: E402


def main() -> int:
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.dirname(WORK), os.environ.get("PYTHONPATH")) if p)

    from clonebas_ray.config import PipelineConfig
    from clonebas_ray.pipelines.dedup import run_dedup_pipeline

    pins: dict[str, dict[str, str]] = {}
    work = os.path.join(WORK, f"pin{os.getpid()}")
    ray = _init_ray()
    try:
        for workload, shape in inputs.SHAPES.items():
            cfg = PipelineConfig(block_mode=shape.block_mode)
            pins[workload] = {}
            for variant in range(inputs.VARIANTS):
                shutil.rmtree(work, ignore_errors=True)
                inp = inputs.generate(workload, variant, work)
                res = run_dedup_pipeline(inp.input_dir, f"{work}/run",
                                         config=cfg, checkpoint=False)
                digest = checks.partition_digest(res.clusters)
                ok, detail = checks.check_result(
                    res.clusters, checks.high_edges(res, cfg), inp.dup_pairs,
                    digest)
                if not ok:
                    raise SystemExit(f"{workload} variant {variant}: {detail}")
                pins[workload][str(variant)] = digest
                recall = detail["recall"]
                print(workload, variant, f"recall={recall:.4f}",
                      f"pairs={len(inp.dup_pairs)}", flush=True)
    finally:
        ray.shutdown()
        shutil.rmtree(work, ignore_errors=True)
    with open(checks.PINS_PATH, "w") as f:
        json.dump(pins, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
