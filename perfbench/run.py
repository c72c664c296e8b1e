"""The benchmark: one workload, one seed, a fixed measuring time.

Usage::

    python3 perfbench/run.py --workload campaign_a --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  Each repetition runs the workload in
a fresh interpreter (``perfbench/rep.py``), so set-up is paid the way
every ``repro campaign`` invocation pays it.  Repetitions repeat until
``--seconds`` are used up (at least three, or two traced pairs), all
at the same seed, and the end-to-end metrics are medians over them.
The host's speed drifts by more than a run can average out, so with
``--trace 0`` a fixed reference kernel (``perfbench/hostspeed.py``) is
timed before the first repetition and after each one, on all the CPUs
the repetitions are pinned to at once (one per process of the
workload), and every end-to-end timing is scaled by the kernel's
reference time over its median time in the run; the unscaled timings
are printed beside them.

``--trace 0`` prints the end-to-end metrics named in ``BENCHMARK.json``;
``--trace 1`` prints its per-layer metrics: an ``-X importtime`` split
of set-up, then untraced and traced repetitions in turn, where the
traced ones wrap each layer's entry points (``perfbench/tracing.py``).

Every repetition checks its output (see ``workloads.replica_ok`` and
``workloads.artifact_counts``), and the work counts of all repetitions
— sum of recovery times, output digest, probe points, checkpoint
commits, bus records, the program's own counters, and in traced
repetitions the span counts — must be identical, or the run fails.
The report gives each metric's median beside its quartiles over the
repetitions; the last line of standard output is the JSON result.  A
traced run names the hooks the program no longer has
(``trace.missing_hooks``), whose time counts in the enclosing span.

If no repetition finishes (with ``--trace 1``: no traced one, or no
import split), the result has ``correct`` false, counts the replicas
of the repetitions that failed as failed, holds no timing metric (with
``--trace 0`` only ``success_rate``), and the exit code is 1.
"""

import argparse
import compileall
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import hostspeed  # noqa: E402
import workloads  # noqa: E402

MIN_REPS = 3
MIN_TRACED_PAIRS = 2
IMPORTTIME_LAUNCHES = 2
#: Everything, set-up and reporting included, ends within this.
HARD_LIMIT_S = 170.0
#: No repetition starts after this, however few have finished, so a
#: slow machine still ends the run before HARD_LIMIT_S.
LAUNCH_CUTOFF_S = 85.0
#: Printed below the end-to-end metrics but not reported: the timings
#: unscaled, and the reference kernel's times they were scaled by.
UNSCALED = [
    {"name": "wall.setup_s", "unit": "s"},
    {"name": "wall.run_s", "unit": "s"},
    {"name": "wall.phases_per_s", "unit": "1/s"},
    {"name": "host.kernel_s", "unit": "s"},
]


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Runner:
    """Launches repetitions, each in its own process group, and reaps them."""

    def __init__(self, config: dict, tmp: str, started: float):
        self.config = config
        self.tmp = tmp
        self.started = started
        self.walls: list[float] = []
        self.errors: list[str] = []
        self.runs = 0

    def launch(self, mode: str, *, trace: bool = False,
               importtime: bool = False) -> dict | None:
        """One repetition's result, or None (the error is kept)."""
        self.runs += mode == "run"
        result = self._launch(mode, trace, importtime)
        if "error" in result:
            self.errors.append(result["error"])
            return None
        return result

    def _launch(self, mode: str, trace: bool, importtime: bool) -> dict:
        job = {"config": self.config, "mode": mode, "trace": trace,
               "tmp": self.tmp}
        cmd = [sys.executable]
        if importtime:
            cmd += ["-X", "importtime"]
        cmd += [os.path.join(HERE, "rep.py"), json.dumps(job)]
        timeout = max(1.0, HARD_LIMIT_S - (monotonic() - self.started))
        launched = monotonic()
        proc = subprocess.Popen(
            cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, start_new_session=True,
        )
        try:
            out, err = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            stop_group(proc.pid)
            proc.communicate()
            return {"error": f"timed out after {timeout:.0f} s"}
        except BaseException:  # SIGTERM or ^C: take the repetition along
            stop_group(proc.pid)
            proc.wait()
            raise
        wall = monotonic() - launched
        if mode == "run":
            self.walls.append(wall)
        if proc.returncode != 0:
            stop_group(proc.pid)
            tail = err.strip().splitlines()[-3:]
            return {"error": f"exit {proc.returncode}: " + " | ".join(tail)}
        try:
            result = json.loads(out.strip().splitlines()[-1])
        except (IndexError, ValueError):
            return {"error": "no result line"}
        result["setup_s"] = result["ready"] - launched
        result["stderr"] = err
        return result

    def time_left(self, deadline: float, reps: int = 1) -> bool:
        """Whether *reps* more repetitions are expected to end by *deadline*."""
        est = statistics.median(self.walls) if self.walls else 0.0
        return monotonic() + reps * est <= deadline


class HostSpeed:
    """One ``hostspeed.py`` process pinned to each CPU of a run."""

    def __init__(self, cpus: list[int]):
        self.procs = []
        try:
            for cpu in cpus:
                self.procs.append(subprocess.Popen(
                    [sys.executable, os.path.join(HERE, "hostspeed.py"),
                     str(cpu)],
                    stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True))
            for p in self.procs:
                p.stdout.readline()  # ready
        except BaseException:
            self.close()
            raise

    def measure(self) -> float:
        """Seconds the kernel takes now, on all the CPUs at once."""
        for p in self.procs:
            p.stdin.write("go\n")
            p.stdin.flush()
        return max(float(p.stdout.readline()) for p in self.procs)

    def close(self) -> None:
        for p in self.procs:
            p.kill()
            p.communicate()


def stop_group(pgid: int) -> None:
    """SIGKILL a repetition's process group and wait for it to empty."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    for _ in range(100):
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.02)


# -- set-up split from -X importtime -----------------------------------------

def import_split(stderr: str) -> dict:
    """Entry-point import time, and the scipy / networkx parts of it (s).

    ``-X importtime`` prints one line per module, children before their
    parent, indented two spaces per level.  The entry point's trees are
    the top-level ``repro`` entries; a package's share is the
    cumulative time of its outermost modules inside those trees.
    """
    pending: dict[int, list] = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line.split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        field = parts[2]
        name = field.strip()
        level = (len(field) - len(field.lstrip(" ")) - 1) // 2
        node = (name, int(parts[1]), pending.pop(level + 1, []))
        pending.setdefault(level, []).append(node)
    roots = [n for n in pending.get(0, []) if n[0].split(".")[0] == "repro"]

    def outermost(nodes, pkg):
        total = 0
        for name, cum, kids in nodes:
            if name.split(".")[0] == pkg:
                total += cum
            else:
                total += outermost(kids, pkg)
        return total

    return {
        "setup.import_s": sum(cum for _, cum, _ in roots) / 1e6,
        "setup.import.scipy_s": outermost(roots, "scipy") / 1e6,
        "setup.import.networkx_s": outermost(roots, "networkx") / 1e6,
    }


# -- statistics and checks ---------------------------------------------------

def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3); a single value is its own quartiles."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def repeat_key(rep: dict) -> str:
    """The counts that must be identical across repetitions at one seed."""
    return json.dumps(rep["counts"], sort_keys=True)


def layer_counts(rep: dict) -> dict:
    """A traced repetition's span counts (integers, exactly repeatable)."""
    return {k: v for k, v in rep["layers"].items() if isinstance(v, int)}


def end_to_end(reps: list[dict], host: list[float]) -> dict:
    """Per-repetition samples of the end-to-end metrics.

    Every timing is scaled by ``hostspeed.REFERENCE_S`` over the median
    of *host*, the reference kernel's times in this run, so it reads in
    seconds of a host running at the reference speed.  The ``wall.``
    samples are the same timings unscaled.
    """
    k = hostspeed.REFERENCE_S / statistics.median(host)
    wall = {
        "wall.setup_s": [r["setup_s"] for r in reps],
        "wall.run_s": [r["run_s"] for r in reps],
        "wall.phases_per_s": [r["useful_phases"] / r["run_s"] for r in reps],
    }
    return {
        "setup_s": [t * k for t in wall["wall.setup_s"]],
        "run_s": [t * k for t in wall["wall.run_s"]],
        "phases_per_s": [v / k for v in wall["wall.phases_per_s"]],
        "peak_rss_mb": [r["peak_rss_mb"] for r in reps],
        **wall,
        "host.kernel_s": host,
    }


def per_layer(cfg: dict, traced: list[dict], untraced: list[dict],
              imports: list[dict]) -> dict:
    """Per-repetition samples of the per-layer metrics.

    Also cross-checks each traced repetition's span counts against its
    run directory, adding to the repetition's problems.
    """
    samples: dict[str, list] = {k: [] for k in imports[0]}
    for split in imports:
        for k, v in split.items():
            samples[k].append(v)
    base_run_s = statistics.median(r["run_s"] for r in untraced)
    pooled = cfg.get("processes", 1) > 1
    for rep in traced:
        m = dict(rep["layers"])
        c = rep["counts"]
        if m["obs.probes.calls"] and m["obs.probes.calls"] != c["probe_points"]:
            rep["problems"].append(
                f"{m['obs.probes.calls']} probe calls but "
                f"{c['probe_points']} probe points on disk")
        if (m["checkpoint.saves"] and not pooled
                and m["checkpoint.saves"] != c["checkpoint_commits"]):
            rep["problems"].append("checkpoint saves != committed sequence")
        if m["other.self_s"] < -0.01 * rep["run_s"]:
            rep["problems"].append(f"layer self times exceed run_s by "
                                   f"{-m['other.self_s']:.4f} s")
        fleet = m["engine.vectorized.fleet_phases"]
        m["engine.vectorized.useful_ratio"] = (
            rep["useful_phases"] / fleet if fleet else 0.0)
        m["obs.probes.observations"] = c["probe_points"]
        m["obs.recorder.bytes"] = rep["recorder_bytes"]
        m["checkpoint.commits"] = c["checkpoint_commits"]
        m["checkpoint.bytes"] = rep["checkpoint_bytes"]
        m["utils.parallel.lost_workers"] = c["lost_workers"]
        m["obs.bus.records"] = c["bus_records"]
        m["engine.scalar.cpu_ns_per_phase"] = (
            m["utils.parallel.worker_cpu_s"] * 1e9 / rep["useful_phases"]
            if pooled and cfg["engine"] == "scalar" else 0.0)
        m["trace.overhead"] = rep["run_s"] / base_run_s - 1.0
        for k, v in m.items():
            samples.setdefault(k, []).append(v)
    return samples


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def report(title: str, metrics: list[dict], samples: dict,
           chosen: dict | None = None) -> dict:
    """Print value and quartiles per metric; returns the JSON metrics.

    The value is the median, unless *chosen* gives one (the traced
    split reports one repetition's values, so that they add up).  A
    spread wider than the metric's bound reads "unresolved".
    """
    print(f"== {title}")
    print(f"{'metric':40s} {'unit':8s} {'value':>14s} {'q1':>14s} "
          f"{'q3':>14s} {'spread':>8s} {'bound':>6s}")
    out = {}
    for spec in metrics:
        name = spec["name"]
        values = samples[name]
        q1, med, q3 = quartiles(values)
        med = (chosen or {}).get(name, med)
        spread = (q3 - q1) / abs(med) if med else 0.0
        bound = spec.get("bound")
        verdict = ""
        if bound is not None:
            verdict = "unresolved" if spread > bound else "steady"
        print(f"{name:40s} {spec['unit']:8s} {med:14.6g} {q1:14.6g} "
              f"{q3:14.6g} {spread:8.2%} "
              f"{'' if bound is None else f'{bound:.0%}':>6s} {verdict}")
        out[name] = {"value": med, "unit": spec["unit"]}
    for spec in metrics:
        values = samples[spec["name"]]
        if len(values) > 1 and len(set(values)) > 1:
            print(f"  {spec['name']} values: "
                  + " ".join(f"{v:.6g}" for v in values))
    return out


def print_split(layers: dict) -> None:
    """The traced run_s of one repetition split into layer self times."""
    from tracing import SPLIT

    total = layers["trace.run_s"]["value"]
    names = sorted(set(SPLIT.values())) + ["other.self_s"]
    print(f"== layer split of that repetition's run_s ({total:.4f} s)")
    acc = 0.0
    for name in names:
        v = layers[name]["value"]
        acc += v
        print(f"  {name:40s} {v:10.4f} s  {v / total:7.2%}")
    print(f"  {'sum':40s} {acc:10.4f} s  {acc / total:7.2%}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WHY))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    started = monotonic()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"no program under {os.path.join(ROOT, 'src')}; run from the "
              "root of a checkout", file=sys.stderr)
        return 2
    spec = load_spec()
    # Byte-compile first, so no repetition's set-up includes compiling.
    compileall.compile_dir(os.path.join(ROOT, "src"), quiet=1)
    compileall.compile_dir(HERE, quiet=1)
    cfg = workloads.make_config(args.workload, args.seed)
    tmp_root = os.path.join(ROOT, ".perfbench-tmp")
    os.makedirs(tmp_root, exist_ok=True)
    tmp = os.path.join(tmp_root, str(os.getpid()))
    os.makedirs(tmp)
    # Pin the repetitions (they inherit it) to the CPUs the kernel is
    # timed on: one per process of the workload.
    cpus = sorted(os.sched_getaffinity(0))[:cfg.get("processes", 1)]
    os.sched_setaffinity(0, cpus)
    runner = Runner(cfg, tmp, started)
    speed = None
    deadline = started + args.seconds
    untraced: list[dict] = []
    traced: list[dict] = []
    imports: list[dict] = []

    def more(minimum: int, reps: int) -> bool:
        if monotonic() - started > LAUNCH_CUTOFF_S:
            return False
        return runner.runs < minimum or runner.time_left(deadline, reps)

    try:
        if args.trace:
            for _ in range(IMPORTTIME_LAUNCHES):
                r = runner.launch("setup", importtime=True)
                if r:
                    imports.append(import_split(r["stderr"]))
            while more(2 * MIN_TRACED_PAIRS, 2):
                for trace, bucket in ((False, untraced), (True, traced)):
                    r = runner.launch("run", trace=trace)
                    if r:
                        bucket.append(r)
        else:
            speed = HostSpeed(cpus)
            host = [speed.measure()]
            while more(MIN_REPS, 1):
                r = runner.launch("run")
                host.append(speed.measure())
                if r:
                    untraced.append(r)
    finally:
        if speed:
            speed.close()
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(tmp_root)
        except OSError:
            pass

    for err in runner.errors:
        print(f"repetition failed: {err}", file=sys.stderr)
    reps = untraced + traced
    print(f"workload {args.workload}  seed {args.seed} (program seed "
          f"{cfg['seed']})  {workloads.WHY[args.workload]}")
    if reps:
        print("counts: " + repeat_key(reps[0]))
    for r in reps[1:]:
        if repeat_key(r) != repeat_key(reps[0]):
            r["problems"].append("did different work than the first "
                                 "repetition: " + repeat_key(r))
    for r in traced[1:]:
        if layer_counts(r) != layer_counts(traced[0]):
            r["problems"].append("span counts differ from the first traced "
                                 "repetition")
    finished = bool(untraced) and not (
        args.trace and (not traced or not imports))
    if args.trace and finished:
        samples = per_layer(cfg, traced, untraced, imports)
    attempted = sum(r["replicas"] for r in reps) + cfg["replicas"] * len(
        runner.errors)
    failed = attempted - sum(0 if r["problems"] else r["passed"] for r in reps)
    for r in reps:
        for p in r["problems"]:
            print(f"check failed: {p}", file=sys.stderr)
    if not finished:
        # The replicas of every repetition that did not finish have
        # failed; with none (or no traced one) finished there is nothing
        # to time.
        print("too few repetitions finished: the timing metrics are absent")
        metrics = {} if args.trace else {
            "success_rate": {"value": 1.0 - failed / attempted,
                             "unit": "fraction"}}
    elif args.trace:
        missing = sorted({h for r in traced for h in r["missing_hooks"]})
        print(f"trace.missing_hooks: {missing}")
        if missing:
            print(f"trace.missing_hooks: {missing} (not timed: their time "
                  "counts in the enclosing span)", file=sys.stderr)
        runs = samples["trace.run_s"]
        middle = sorted(range(len(runs)), key=runs.__getitem__)[
            (len(runs) - 1) // 2]
        chosen = {k: v[middle] for k, v in samples.items()
                  if not k.startswith("setup.")}
        metrics = report(f"per-layer metrics ({len(traced)} traced "
                         "repetitions; values from the one with the median "
                         "trace.run_s, quartiles over all)",
                         spec["per_layer"], samples, chosen)
        print_split(metrics)
    else:
        samples = end_to_end(untraced, host)
        samples["success_rate"] = [1.0 - failed / attempted]
        metrics = report(f"end-to-end metrics (medians over {len(untraced)} "
                         "repetitions; quartiles over them)",
                         spec["end_to_end"] + UNSCALED, samples)
        metrics = {m["name"]: metrics[m["name"]] for m in spec["end_to_end"]}
    print(json.dumps({
        "correct": finished and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if finished else 1


if __name__ == "__main__":
    sys.exit(main())
