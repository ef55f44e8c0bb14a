"""Layered benchmark for the clone-dedup pipeline.

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` builds the workload's inputs from the seed, times
``clonebas_ray.pipelines.dedup.run_dedup_pipeline`` on them, checks
every output, and prints one JSON result line.  ``BENCHMARK.json`` at
the repository root names the workloads and metrics.
"""
