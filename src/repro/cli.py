"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``simulate`` — run a dynamic process from a chosen start state and
  print the max-load trajectory;
* ``bounds``   — print every recovery bound of the paper for a given
  (n, m) and ε;
* ``experiment`` — run one experiment (E1–E16) and print its tables;
* ``report``   — run all experiments and write EXPERIMENTS.md;
* ``verify``   — certify the paper's coupling lemmas on small exhaustive
  domains and run the statistical engine-acceptance battery
  (``--quick``/``--full``/``--json``; the exit code ORs one bit per
  failed certificate group, see :mod:`repro.verify`);
* ``static``   — static allocation baseline (max load for d = 1..D);
* ``engines``  — the spec × engine capability matrix: every registered
  :class:`~repro.engine.spec.ProcessSpec`, which execution engines
  (scalar / vectorized / exact) support it, and why rejected combos
  are rejected;
* ``bench``    — unified benchmark runner (``bench run`` discovers
  ``benchmarks/bench_*.py``, times them with warmup + repeats and
  RSS/CPU sampling, and writes a ``BENCH_<timestamp>_<gitrev>.json``
  perf artifact; ``bench list`` shows what would run);
* ``resume``   — continue an interrupted checkpointed run
  (``campaign --save-every`` / ``verify --checkpoint``) in place; the
  finished artifact is byte-identical to an uninterrupted run's;
* ``obs``      — inspect recorded perf/run artifacts:
  ``obs summarize <run-dir>`` prints the timing/convergence report,
  ``obs watch <run-dir>`` live-tails a probed run's
  ``timeseries.jsonl`` (sparklines + recovery-monitor events),
  ``obs diff A B`` compares two bench JSONs or run dirs with bootstrap
  CIs and improved/regressed/unchanged verdicts, ``obs trend`` draws the
  perf trajectory over the committed ``BENCH_*.json`` artifacts (with a
  drift gate against the trailing window), and ``obs gc`` prunes old
  ``runs/<id>/`` directories (dry-run by default).

Every command takes ``--seed`` for reproducibility.  ``experiment``
additionally takes ``--trace`` / ``--metrics-out DIR`` to record a run
artifact (``events.jsonl`` + ``meta.json``) via :mod:`repro.obs`,
``--profile`` to attach a cProfile capture to it, and
``--probe-every K`` to stream per-step chain telemetry into
``timeseries.jsonl`` (see :mod:`repro.obs.probes`).
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

import numpy as np

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Recovery Time of Dynamic Allocation Processes (SPAA 1998) "
        "— reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run a dynamic process")
    p.add_argument("--scenario", choices=("a", "b", "edge"), default="a")
    p.add_argument("--n", type=int, default=100, help="bins / vertices")
    p.add_argument("--m", type=int, default=None, help="balls (default: n)")
    p.add_argument("--d", type=int, default=2, help="ABKU choices")
    p.add_argument("--steps", type=int, default=None,
                   help="steps (default: the paper's recovery bound)")
    p.add_argument("--start", choices=("crash", "balanced", "random"),
                   default="crash")
    p.add_argument("--checkpoints", type=int, default=8)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("bounds", help="print the paper's recovery bounds")
    p.add_argument("--n", type=int, default=100)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--eps", type=float, default=0.25)

    p = sub.add_parser("experiment", help="run one experiment")
    p.add_argument("id", help="experiment id, e.g. E4")
    p.add_argument("--scale", choices=("smoke", "paper"), default="smoke")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--trace", action="store_true",
        help="record span tracing + run artifact (default dir runs/<id>)",
    )
    p.add_argument(
        "--metrics-out", default=None, metavar="DIR",
        help="run-artifact directory (implies observability)",
    )
    p.add_argument(
        "--profile", action="store_true",
        help="wrap the run in cProfile; writes profile.pstats + a top-N "
        "self-time table into the run dir (implies observability)",
    )
    p.add_argument(
        "--probe-every", type=int, default=0, metavar="K",
        help="per-step chain probes every K steps into timeseries.jsonl "
        "(0 = off; implies observability; watch live with 'obs watch')",
    )

    p = sub.add_parser("report", help="run all experiments, write EXPERIMENTS.md")
    p.add_argument("--scale", choices=("smoke", "paper"), default="smoke")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="EXPERIMENTS.md")
    p.add_argument(
        "--no-progress", action="store_true",
        help="suppress the per-experiment heartbeat/ETA lines on stderr",
    )

    p = sub.add_parser(
        "verify",
        help="certify the coupling lemmas and run the engine acceptance battery",
    )
    mode = p.add_mutually_exclusive_group()
    mode.add_argument(
        "--quick", action="store_true",
        help="small exhaustive domains + small battery (the default)",
    )
    mode.add_argument(
        "--full", action="store_true",
        help="larger domains and a bigger statistical battery",
    )
    p.add_argument("--n", type=int, default=None,
                   help="override: bins for the lemma enumerations")
    p.add_argument("--m", type=int, default=None,
                   help="override: balls for the lemma enumerations")
    p.add_argument("--edge-n", type=int, default=None,
                   help="override: vertices for the edge orientation metric")
    p.add_argument("--seed", type=int, default=0,
                   help="battery seed (lemma certificates are exact)")
    p.add_argument("--json", action="store_true",
                   help="print the certificate set as JSON instead of a table")
    p.add_argument("--no-battery", action="store_true",
                   help="lemma certificates only, skip the statistical battery")
    p.add_argument(
        "--out", default=None, metavar="DIR",
        help="record a run artifact + certificates.json into DIR",
    )
    p.add_argument(
        "--checkpoint", action="store_true",
        help="checkpoint after each certificate (requires --out); a "
        "SIGTERM-interrupted run resumes with 'repro resume DIR'",
    )

    p = sub.add_parser("diagnose", help="mixing diagnostics of a small exact chain")
    p.add_argument("--chain", choices=("a", "b", "edge"), default="a")
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--m", type=int, default=5)
    p.add_argument("--eps", type=float, default=0.25)

    p = sub.add_parser("static", help="static allocation baseline")
    p.add_argument("--n", type=int, default=4096)
    p.add_argument("--max-d", type=int, default=3)
    p.add_argument("--replicas", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser(
        "engines", help="list registered process specs and engine support"
    )
    p.add_argument(
        "--spec", default=None, metavar="NAME",
        help="show only this registered spec (default: all)",
    )

    p = sub.add_parser(
        "campaign",
        help="parallel probed crash-recovery campaign (telemetry-bus fleet)",
    )
    p.add_argument("--n", type=int, default=64, help="bins/servers (default 64)")
    p.add_argument("--m", type=int, default=None,
                   help="balls/jobs (default: n)")
    p.add_argument("--d", type=int, default=2,
                   help="choices per allocation (ABKU rule, default 2)")
    p.add_argument("--scenario", choices=("a", "b"), default="a")
    p.add_argument("--spec",
                   choices=("rbb_uniform", "rbb_twochoice", "rbb_walk"),
                   default=None, metavar="NAME",
                   help="campaign a synchronous-step (RBB) spec instead of "
                   "--scenario: rbb_uniform, rbb_twochoice, rbb_walk")
    p.add_argument("--engine", choices=("scalar", "vectorized", "exact"),
                   default="scalar")
    p.add_argument("--replicas", type=int, default=8)
    p.add_argument("--processes", type=int, default=2,
                   help="worker processes / telemetry lanes (default 2)")
    p.add_argument("--target", type=int, default=None,
                   help="recovered max-load target (default: recovery_target)")
    p.add_argument("--max-steps", type=int, default=1_000_000)
    p.add_argument("--probe-every", type=int, default=50,
                   help="probe decimation: record every k-th step (default 50)")
    p.add_argument("--heartbeat-s", type=float, default=None,
                   help="worker heartbeat period in seconds")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, metavar="DIR",
                   help="run directory (default runs/<stamp>-campaign)")
    p.add_argument("--trace", action="store_true",
                   help="also record span events (events.jsonl)")
    p.add_argument("--save-every", type=int, default=0, metavar="K",
                   help="checkpoint every K steps (pooled runs: per fleet "
                   "item); 0 = no checkpointing (default). SIGTERM saves at "
                   "the next boundary and finalizes a resumable artifact")
    p.add_argument("--eps", type=float, default=0.25,
                   help="TV-recovery threshold for --engine exact "
                   "(default 0.25)")
    p.add_argument("--restart-lost", type=int, default=0, metavar="N",
                   help="pooled runs: survive up to N killed workers by "
                   "replaying their shards from the fleet checkpoint "
                   "(needs --save-every K > 0 and --processes > 1)")
    p.add_argument("--batch", type=int, default=1, metavar="T",
                   help="vectorized engine: advance fleets up to T steps "
                   "per kernel call (identical times/telemetry/checkpoints "
                   "at every T; default 1; must be >= 1)")

    p = sub.add_parser(
        "fuzz",
        help="differential engine fuzzing: batched kernels vs a row-by-row "
        "replay and scalar run loops vs a one-row replay (bitwise), "
        "scalar-vs-vectorized KS, replay (tests/fuzzkit harness)",
    )
    p.add_argument("--budget", type=int, default=50, metavar="N",
                   help="sampled configurations in grid mode (default 50)")
    p.add_argument("--seed", type=int, default=0,
                   help="grid seed: the config sample is a pure function "
                   "of (seed, budget)")
    p.add_argument("--config", default=None, metavar="JSON",
                   help="replay one configuration (the JSON a failure "
                   "report prints) instead of sampling a grid")
    p.add_argument("--check",
                   choices=("all", "batched", "artifact", "replay", "scalar", "ks"),
                   default="all",
                   help="restrict to one differential check (default all)")
    p.add_argument("--json", action="store_true",
                   help="emit a machine-readable result document on stdout")

    p = sub.add_parser(
        "resume",
        help="continue an interrupted checkpointed run in its run directory",
    )
    p.add_argument("run_dir", help="run directory holding checkpoint.json")

    p = sub.add_parser("bench", help="unified benchmark runner")
    bench_sub = p.add_subparsers(dest="bench_command", required=True)
    pb = bench_sub.add_parser(
        "run", help="time benchmarks/bench_*.py, write a BENCH_*.json artifact"
    )
    pb.add_argument(
        "--filter", default=None, metavar="SUBSTR",
        help="only benches whose file stem or file::function id contains SUBSTR",
    )
    pb.add_argument("--repeats", type=int, default=5,
                    help="timed rounds per bench (default 5)")
    pb.add_argument("--warmup", type=int, default=1,
                    help="warmup rounds per bench (default 1)")
    pb.add_argument(
        "--quick", action="store_true",
        help="skip calibration/warmup (1 iteration per round) for CI smoke",
    )
    pb.add_argument(
        "--profile", action="store_true",
        help="cProfile each bench's timed rounds; .pstats per bench in the run dir",
    )
    pb.add_argument("--bench-dir", default="benchmarks",
                    help="directory holding bench_*.py (default benchmarks)")
    pb.add_argument("--out-dir", default="benchmarks/artifacts",
                    help="where the BENCH_*.json lands "
                    "(default: benchmarks/artifacts)")
    pb.add_argument("--run-dir", default=None, metavar="DIR",
                    help="run-artifact directory (default runs/bench-<timestamp>)")
    pb.add_argument("--no-progress", action="store_true",
                    help="suppress per-bench heartbeat lines on stderr")
    pl = bench_sub.add_parser("list", help="list discovered benches without running")
    pl.add_argument("--filter", default=None, metavar="SUBSTR")
    pl.add_argument("--bench-dir", default="benchmarks")

    p = sub.add_parser("obs", help="inspect recorded perf/run artifacts")
    obs_sub = p.add_subparsers(dest="obs_command", required=True)
    ps = obs_sub.add_parser(
        "summarize", help="print a timing/convergence report of a run directory"
    )
    ps.add_argument("run_dir", help="run-artifact directory (e.g. runs/demo)")
    pw = obs_sub.add_parser(
        "watch", help="live tail + sparkline view of a probed run directory"
    )
    pw.add_argument("run_dir", help="run-artifact directory being written (or done)")
    pw.add_argument("--interval", type=float, default=1.0,
                    help="refresh period in seconds (default 1.0)")
    pw.add_argument("--once", action="store_true",
                    help="render a single frame and exit (no follow loop)")
    pw.add_argument("--follow", action="store_true",
                    help="keep tailing after the run reaches a terminal "
                    "status (default: exit cleanly on ok/error/interrupted)")
    pw.add_argument("--frames", type=int, default=None, metavar="N",
                    help="stop after N frames even if the run is still going")
    pd = obs_sub.add_parser(
        "diff", help="compare two BENCH_*.json artifacts or runs/<id> directories"
    )
    pd.add_argument("a", help="baseline: BENCH_*.json or run directory")
    pd.add_argument("b", help="candidate: BENCH_*.json or run directory")
    pd.add_argument("--json", action="store_true", dest="as_json",
                    help="machine-readable output instead of the table")
    pd.add_argument("--threshold", type=float, default=0.05,
                    help="relative change needed for a verdict (default 0.05 = 5%%)")
    pd.add_argument("--bootstrap", type=int, default=2000,
                    help="bootstrap resamples for the CI (default 2000)")
    pd.add_argument("--seed", type=int, default=0,
                    help="bootstrap RNG seed (deterministic CIs)")
    pd.add_argument(
        "--fail-on-regression", action="store_true",
        help="exit 1 when any metric is significantly regressed",
    )
    pt = obs_sub.add_parser(
        "trend",
        help="per-commit perf trajectory over all BENCH_*.json artifacts",
    )
    pt.add_argument("metric", nargs="?", default=None,
                    help="one metric (e.g. 'bench_obs::counter_inc.wall_s'); "
                    "default: every metric in the head artifact")
    pt.add_argument("--window", type=int, default=3,
                    help="trailing artifacts pooled as the drift baseline "
                    "(default 3)")
    pt.add_argument("--threshold", type=float, default=0.05,
                    help="relative change needed for a verdict (default 0.05)")
    pt.add_argument("--bootstrap", type=int, default=2000,
                    help="bootstrap resamples for the CI (default 2000)")
    pt.add_argument("--seed", type=int, default=0,
                    help="bootstrap RNG seed (deterministic CIs)")
    pt.add_argument("--json", action="store_true", dest="as_json",
                    help="machine-readable output instead of the tables")
    pt.add_argument(
        "--fail-on-regression", action="store_true",
        help="exit 1 when the head regresses vs the trailing window",
    )
    pg = obs_sub.add_parser(
        "gc", help="prune old runs/<id> directories by mtime (dry-run by default)"
    )
    pg.add_argument("--keep", type=int, default=10,
                    help="newest run dirs to keep (default 10)")
    pg.add_argument("--runs-dir", default="runs",
                    help="artifact root to prune (default runs)")
    pg.add_argument("--apply", action="store_true",
                    help="actually delete (default: print what would go)")

    return parser


def _cmd_simulate(args) -> int:
    from repro.balls.load_vector import LoadVector
    from repro.balls.rules import ABKURule
    from repro.balls.scenario_a import ScenarioAProcess
    from repro.balls.scenario_b import ScenarioBProcess
    from repro.coupling.recovery import claim53_bound, theorem1_bound, theorem2_bound
    from repro.utils.tables import Table

    n = args.n
    m = args.m if args.m is not None else n
    if args.scenario == "edge":
        from repro.analysis.recovery_measure import crash_state_edge
        from repro.edgeorient.greedy import EdgeOrientationProcess

        start = crash_state_edge(n) if args.start == "crash" else [0] * n
        proc = EdgeOrientationProcess(start, seed=args.seed)
        steps = args.steps if args.steps is not None else int(theorem2_bound(n))
        t = Table(["step", "unfairness"], title=f"edge orientation, n={n}")
        chunk = max(1, steps // args.checkpoints)
        t.add_row([0, proc.unfairness])
        done = 0
        while done < steps:
            todo = min(chunk, steps - done)
            proc.run(todo)
            done += todo
            t.add_row([done, proc.unfairness])
        print(t.render())
        return 0

    rule = ABKURule(args.d)
    if args.start == "crash":
        start = LoadVector.all_in_one(m, n)
    elif args.start == "balanced":
        start = LoadVector.balanced(m, n)
    else:
        start = LoadVector.random(m, n, args.seed)
    if args.scenario == "a":
        proc = ScenarioAProcess(rule, start, seed=args.seed)
        default_steps = theorem1_bound(m)
    else:
        proc = ScenarioBProcess(rule, start, seed=args.seed)
        default_steps = min(claim53_bound(n, m), 20 * n * m)
    steps = args.steps if args.steps is not None else default_steps
    t = Table(
        ["step", "max load"],
        title=f"I_{args.scenario.upper()}-ABKU[{args.d}], n={n}, m={m}",
    )
    chunk = max(1, steps // args.checkpoints)
    loads = [proc.max_load]
    t.add_row([0, proc.max_load])
    done = 0
    while done < steps:
        todo = min(chunk, steps - done)
        proc.run(todo)
        done += todo
        loads.append(proc.max_load)
        t.add_row([done, proc.max_load])
    print(t.render())
    from repro.utils.ascii_plot import sparkline

    print(f"max load trajectory: {sparkline(loads)}")
    return 0


def _cmd_bounds(args) -> int:
    from repro.coupling.recovery import RecoveryBounds
    from repro.utils.tables import Table

    n = args.n
    m = args.m if args.m is not None else n
    rb = RecoveryBounds.for_balls(n, m, args.eps)
    re = RecoveryBounds.for_edge_orientation(n, args.eps)
    t = Table(["bound", "value"], title=f"paper bounds at n={n}, m={m}, eps={args.eps}")
    t.add_row(["Theorem 1 (scenario A)", rb.scenario_a])
    t.add_row(["  tight rate m ln m", rb.scenario_a_lower])
    t.add_row(["Claim 5.3 (scenario B)", rb.scenario_b])
    t.add_row(["  improved shape m^2 ln^2 m", rb.scenario_b_improved])
    t.add_row(["  lower bounds n*m / m^2", f"{rb.scenario_b_lower_nm:.0f} / {rb.scenario_b_lower_m2:.0f}"])
    t.add_row(["Corollary 6.4 (edge)", re.edge_cor64])
    t.add_row(["Theorem 2 shape n^2 ln^2 n", re.edge_thm2])
    t.add_row(["  lower bound n^2", re.edge_lower])
    t.add_row(["Ajtai et al. previous n^5", re.edge_previous])
    print(t.render())
    return 0


def _cmd_experiment(args) -> int:
    from repro.experiments.base import run_observed
    from repro.experiments.registry import get_experiment

    run = get_experiment(args.id.upper())
    result = run_observed(
        run,
        scale=args.scale,
        seed=args.seed,
        trace=args.trace,
        metrics_out=args.metrics_out,
        profile=args.profile,
        probe_every=args.probe_every,
    )
    print(result.render())
    return 0 if "VIOLATED" not in result.verdict else 1


def _cmd_report(args) -> int:
    from repro.experiments.report import generate

    text = generate(args.scale, args.seed, progress=not args.no_progress)
    with open(args.out, "w") as f:
        f.write(text)
    print(f"wrote {args.out}")
    return 0


def _cmd_verify(args) -> int:
    from repro.verify import VerifyConfig, run_verification

    if args.checkpoint and args.out is None:
        print("error: --checkpoint requires --out DIR", file=sys.stderr)
        return 2
    factory = VerifyConfig.full if args.full else VerifyConfig.quick
    overrides = {"seed": args.seed, "battery": not args.no_battery, "out": args.out}
    for key in ("n", "m", "edge_n"):
        value = getattr(args, key)
        if value is not None:
            overrides[key] = value
    if args.checkpoint:
        from repro.checkpoint import CheckpointInterrupt

        try:
            result = run_verification(factory(**overrides), checkpoint=True)
        except CheckpointInterrupt as ci:
            print(
                f"interrupted after certificate {ci.step}; resume with:\n"
                f"  python -m repro resume {args.out}",
                file=sys.stderr,
            )
            return 3
    else:
        result = run_verification(factory(**overrides))
    if args.json:
        print(result.to_json(), end="")
    else:
        print(result.table())
        if result.passed:
            print("\nall certificates passed")
        else:
            failed = ", ".join(
                c.name for c in result.certificates if not c.passed
            )
            print(
                f"\nVERIFICATION FAILED ({failed}); exit code "
                f"{result.exit_code}",
                file=sys.stderr,
            )
    return result.exit_code


def _cmd_static(args) -> int:
    from repro.balls.rules import ABKURule
    from repro.balls.static import predicted_static_max_load, static_max_load_samples
    from repro.utils.tables import Table

    t = Table(
        ["d", "mean max load", "prediction"],
        title=f"static allocation of n = m = {args.n}",
    )
    for d in range(1, args.max_d + 1):
        samples = static_max_load_samples(
            ABKURule(d), args.n, args.n, args.replicas, seed=args.seed + d
        )
        t.add_row([d, float(np.mean(samples)), predicted_static_max_load(d, args.n)])
    print(t.render())
    return 0


def _cmd_diagnose(args) -> int:
    from repro.analysis.diagnose import diagnose
    from repro.balls.rules import ABKURule
    from repro.edgeorient.chain import edge_orientation_kernel
    from repro.markov import scenario_a_kernel, scenario_b_kernel

    if args.chain == "edge":
        chain = edge_orientation_kernel(args.n)
        title = f"edge orientation chain, n={args.n}"
    else:
        kernel = scenario_a_kernel if args.chain == "a" else scenario_b_kernel
        chain = kernel(ABKURule(2), args.n, args.m)
        title = f"I_{args.chain.upper()}-ABKU[2], n={args.n}, m={args.m}"
    diag = diagnose(chain, eps=args.eps)
    diag.check_consistency()
    print(diag.table(title).render())
    return 0


def _print_campaign_summary(summary: dict) -> int:
    """Render a campaign summary dict; returns the exit code."""
    from repro.utils.tables import Table

    out = summary["run_dir"]
    if summary.get("interrupted") is not None:
        print(
            f"interrupted: checkpointed at step {summary['interrupted']}; "
            f"resume with:\n  python -m repro resume {out}",
            file=sys.stderr,
        )
        return 3
    meta = summary["meta"]
    t = Table(
        ["n", "m", "scenario", "engine", "replicas", "procs",
         "target", "median T", "q95 T", "capped", "wall s"],
        title="campaign summary",
    )
    t.add_row([
        meta["n"], meta["m"], meta["scenario"], meta["engine"],
        meta["replicas"], meta["processes"], summary["target_max_load"],
        summary["median"], summary["q95"], summary["capped"],
        summary["wall_s"],
    ])
    print(t.render())
    return 0 if summary["capped"] == 0 else 1


def _cmd_campaign(args) -> int:
    from repro.checkpoint.campaign import run_checkpointed_campaign
    from repro.experiments.campaign import campaign_config, default_campaign_dir

    try:
        config = campaign_config(
            n=args.n,
            m=args.m,
            d=args.d,
            scenario=args.spec or args.scenario,
            engine=args.engine,
            replicas=args.replicas,
            processes=args.processes,
            target=args.target,
            max_steps=args.max_steps,
            probe_every=args.probe_every,
            heartbeat_s=args.heartbeat_s,
            seed=args.seed,
            trace=args.trace,
            save_every=args.save_every,
            eps=args.eps,
            restart_lost=args.restart_lost,
            batch=args.batch,
        )
        # Only a validated campaign advertises its run directory.
        out = args.out or default_campaign_dir()
        print(f"campaign run dir: {out}")
        print(f"  watch live:  python -m repro obs watch {out}")
        summary = run_checkpointed_campaign(out, config=config)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return _print_campaign_summary(summary)


def _cmd_fuzz(args) -> int:
    from repro.verify.differential import run_fuzz_cli

    return run_fuzz_cli(
        budget=args.budget,
        seed=args.seed,
        config_json=args.config,
        check=args.check,
        as_json=args.json,
    )


def _cmd_resume(args) -> int:
    from repro.checkpoint import CheckpointInterrupt, resume
    from repro.verify.certificates import CertificateSet

    try:
        result = resume(args.run_dir)
    except (FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CheckpointInterrupt as ci:
        print(
            f"interrupted again at step {ci.step}; resume with:\n"
            f"  python -m repro resume {args.run_dir}",
            file=sys.stderr,
        )
        return 3
    if isinstance(result, CertificateSet):
        print(result.table())
        return result.exit_code
    return _print_campaign_summary(result)


def _cmd_engines(args) -> int:
    from repro.engine import ENGINES, engine_support, spec_entries
    from repro.engine.registry import batched_kernel
    from repro.utils.tables import Table

    entries = spec_entries()
    if args.spec is not None:
        if args.spec not in entries:
            print(
                f"error: unknown spec {args.spec!r}; registered: "
                f"{', '.join(entries)}",
                file=sys.stderr,
            )
            return 1
        entries = {args.spec: entries[args.spec]}
    t = Table(
        ["spec", "step", "shape"] + [e.name for e in ENGINES] + ["batched kernel"],
        title="registered process specs × execution engines",
    )
    for name, entry in entries.items():
        spec = entry.build()
        row = [name, spec.step.name, spec.describe()]
        for engine_name, (ok, why) in engine_support(spec).items():
            row.append("yes" if ok else f"no: {why}")
        b_ok, how = batched_kernel(spec)
        row.append(how if b_ok else "-")
        t.add_row(row)
    print(t.render())
    print(
        "\nyes = the engine executes the spec; no = rejected with the "
        "reason shown.\nscalar is the reference path (always available); "
        "see docs/ENGINES.md.\nbatched kernel = the segment kernel a "
        "vectorizable spec advances on (every run, step and "
        "recovery_times call)."
    )
    return 0


def _cmd_bench(args) -> int:
    from repro.obs.bench import discover, render_bench_payload, run_benchmarks

    if args.bench_command == "list":
        try:
            specs = discover(args.bench_dir, args.filter)
        except FileNotFoundError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        from repro.utils.tables import Table

        t = Table(["bench", "fixtures", "status"], title="discovered benchmarks")
        for s in specs:
            t.add_row([
                s.bench_id, ", ".join(s.params) or "-",
                s.skip_reason or "runnable",
            ])
        print(t.render())
        from repro.obs.trend import bench_trajectory

        points = bench_trajectory()
        if points:
            t = Table(
                ["artifact", "created", "git rev", "metrics"],
                title="committed trajectory points (obs trend renders these)",
            )
            for p in points:
                t.add_row([
                    p.path, p.created_at[:19] or "?",
                    (p.git_rev or "?")[:10], len(p.metrics),
                ])
            print("\n" + t.render())
        return 0

    try:
        json_path, payload = run_benchmarks(
            bench_dir=args.bench_dir,
            pattern=args.filter,
            repeats=args.repeats,
            warmup=args.warmup,
            quick=args.quick,
            profile=args.profile,
            out_dir=args.out_dir,
            run_dir=args.run_dir,
            progress=not args.no_progress,
        )
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(render_bench_payload(payload))
    print(f"\nwrote {json_path} (run artifact: {payload['run_dir']})")
    errors = [b for b in payload["benches"] if b.get("status") == "error"]
    for b in errors:
        print(f"bench error: {b['id']}: {b.get('error')}", file=sys.stderr)
    return 1 if errors else 0


def _cmd_obs(args) -> int:
    if args.obs_command == "watch":
        from repro.obs.watch import watch

        try:
            return watch(
                args.run_dir,
                interval=args.interval,
                frames=args.frames,
                once=args.once,
                follow=args.follow,
            )
        except FileNotFoundError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        except KeyboardInterrupt:
            return 0

    if args.obs_command == "diff":
        import json as _json

        from repro.obs.compare import compare_paths, compare_to_json, render_compare

        try:
            result = compare_paths(
                args.a, args.b,
                threshold=args.threshold, n_boot=args.bootstrap, seed=args.seed,
            )
        except (FileNotFoundError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        if args.as_json:
            print(_json.dumps(compare_to_json(result), indent=2, sort_keys=True))
        else:
            print(render_compare(result))
        if args.fail_on_regression and result.has_regression:
            return 1
        return 0

    if args.obs_command == "trend":
        import json as _json

        from repro.obs.trend import compute_trend, render_trend, trend_to_json

        result = compute_trend(
            metric=args.metric,
            window=args.window,
            threshold=args.threshold,
            n_boot=args.bootstrap,
            seed=args.seed,
        )
        if args.as_json:
            print(_json.dumps(trend_to_json(result), indent=2, sort_keys=True))
        else:
            print(render_trend(result))
        if args.fail_on_regression and result.has_regression:
            return 1
        return 0

    if args.obs_command == "gc":
        from repro.obs import gc_runs

        report = gc_runs(args.runs_dir, keep=args.keep, apply=args.apply)
        verb = "removed" if report["applied"] else "would remove"
        for path in report["pruned"]:
            print(f"{verb} {path}")
        tail = "" if report["applied"] else ", dry run — pass --apply to delete"
        print(
            f"{len(report['kept'])} kept, {len(report['pruned'])} pruned "
            f"(keep={args.keep}{tail})"
        )
        return 0

    from repro.obs import summarize_run

    try:
        print(summarize_run(args.run_dir))
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


_COMMANDS = {
    "simulate": _cmd_simulate,
    "diagnose": _cmd_diagnose,
    "bounds": _cmd_bounds,
    "experiment": _cmd_experiment,
    "report": _cmd_report,
    "verify": _cmd_verify,
    "static": _cmd_static,
    "engines": _cmd_engines,
    "campaign": _cmd_campaign,
    "fuzz": _cmd_fuzz,
    "resume": _cmd_resume,
    "bench": _cmd_bench,
    "obs": _cmd_obs,
}


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    raise SystemExit(main())
