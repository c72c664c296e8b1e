"""One repetition of a workload in a fresh interpreter.

Usage: ``python3 perfbench/rep.py '<json job>'`` where the job holds the
workload ``config`` (from ``workloads.make_config``), the ``mode``
(``"run"`` or ``"setup"``), whether to ``trace``, and ``tmp``, the
directory that receives this repetition's run directory.

Set-up is everything from interpreter launch until the entry point is
imported and the inputs are built; the last thing set-up does is read
``CLOCK_MONOTONIC``, which the parent compares with its own reading at
launch.  In ``"setup"`` mode the repetition stops there (this is the
mode the parent runs under ``-X importtime``).  In ``"run"`` mode it
times the measured call, checks the output, counts what the run
directory holds, removes that directory, and prints one JSON line.
"""

import json
import os
import sys
import time


def main() -> None:
    job = json.loads(sys.argv[1])
    cfg = job["config"]
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, os.path.join(root, "src"))
    import workloads

    workloads.import_entry(cfg)
    inputs = workloads.build_inputs(cfg)
    ready = time.clock_gettime(time.CLOCK_MONOTONIC)
    if job["mode"] == "setup":
        print(json.dumps({"ready": ready}))
        return

    import resource
    import shutil
    import tempfile

    spans = None
    if job["trace"]:
        import tracing

        spans, pool = tracing.install()
    run_dir = os.path.join(tempfile.mkdtemp(dir=job["tmp"]), "run")
    t0 = time.perf_counter()
    out = workloads.run(cfg, inputs, run_dir)
    run_s = time.perf_counter() - t0

    self_ru = resource.getrusage(resource.RUSAGE_SELF)
    kids_ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    counts, problems = workloads.artifact_counts(cfg, run_dir, out)
    ok = workloads.replica_ok(cfg, out)
    counts["useful_phases"] = workloads.useful_phases(cfg, out)
    counts["digest"] = workloads.digest(out)
    result = {
        "ready": ready,
        "run_s": run_s,
        "useful_phases": counts["useful_phases"],
        "peak_rss_mb": max(self_ru.ru_maxrss, kids_ru.ru_maxrss) / 1024.0,
        "replicas": len(ok),
        "passed": 0 if problems else sum(ok),
        "problems": problems,
        "counts": counts,
        "recorder_bytes": workloads.dir_bytes(run_dir, checkpoint=False),
        "checkpoint_bytes": workloads.dir_bytes(run_dir, checkpoint=True),
    }
    if spans is not None:
        result["layers"] = tracing.layer_metrics(spans, pool, run_s)
        result["missing_hooks"] = spans.missing
    shutil.rmtree(os.path.dirname(run_dir))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
