#!/usr/bin/env python3
"""Benchmark for shearwaves: seeded CLI workloads, checked against exact oracles.

Usage, from the root of a checkout:

    python3 benchmarks/run.py --workload evolve_coarse --seed 1 --seconds 30 --trace 0

The run generates the workload's job list from the seed, writes each job's
config as a JSON file under ``.bench_out/``, and drives
``shearwaves.cli.main`` in-process, one job at a time (a closed loop with one
client, in one single-threaded process).  After a warm-up round it repeats
the job list until ``--seconds`` have passed, checks every job's output, and
prints every metric by name with its unit.  Times are reported in refs,
multiples of a fixed reference kernel timed in the same round, because the
host's speed swings too much for wall-clock seconds to compare across runs
(see README.md beside this file).  The last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer metrics
with ``--trace 1``.  A traced run alternates untraced and traced rounds; the
difference between the two is ``trace.overhead_share``.
"""
from __future__ import annotations

import os

# one thread per process, set before numpy is imported anywhere
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import io
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 9
# setup_s is in seconds of a host on which the reference kernel takes 1 ms
NOMINAL_REF_S = 1.0e-3
MIN_TAIL_BEYOND = 10

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402  (stdlib only)

END_TO_END = {
    "setup_s": "s",
    "wall_ref": "ref",
    "job_p50_ref": "ref",
    "job_tail_ref": "ref",
    "peak_rss_mb": "MB",
    "work_per_ref": "1/ref",
}
# what one unit of work is on each workload, and the name its rate goes by there
WORK_UNIT = {
    "evolve_coarse": ("cell_updates_per_s", "cells/s"),
    "evolve_fine": ("cell_updates_per_s", "cells/s"),
    "implicit_fields": ("points_per_s", "points/s"),
    "artifact_write": ("rows_per_s", "rows/s"),
}
PER_LAYER_UNITS = {
    "cli.self_s": "s", "cli.write_csv_s": "s", "cli.csv_rows": "count", "cli.csv_bytes": "bytes",
    "cli.write_csv_us_per_row": "us", "cli.write_json_s": "s", "cli.manifest_bytes": "bytes",
    "simulate.evolve_s": "s", "simulate.steps": "count", "simulate.cell_updates": "count",
    "simulate.errors": "count", "simulate.step_us.le512": "us", "simulate.step_us.ge4096": "us",
    "constitutive.eval_Q_calls": "count", "constitutive.eval_Q_s": "s",
    "constitutive.eval_Q_calls_per_step": "1/step",
    "constitutive.solve_level_set_calls": "count", "constitutive.solve_level_set_s": "s",
    "exact.sample_hodograph_s": "s", "exact.sample_simple_wave_s": "s",
    "exact.eval_overdetermined_s": "s", "exact.points_solved": "count",
    "exact.hodograph_invert_calls": "count", "exact.newton_iters": "count",
    "exact.forward_evals": "count", "exact.newton_accept_ratio": "ratio",
    "exact.eval_simple_wave_calls": "count", "exact.errors": "count",
    "profiles.calls": "count", "profiles.calls_per_point": "1/point",
    "analysis.classify_s": "s", "analysis.temple_eigen_calls": "count",
    "analysis.temple_eigen_s": "s", "verify.residual_s": "s", "verify.convergence_study_s": "s",
    "numerics.rk4_calls": "count", "numerics.rk4_s": "s", "trace.overhead_share": "ratio",
}


def reference_seconds() -> float:
    """Time one pass of a fixed reference kernel, about a millisecond long.

    The kernel spends its time the way the interpreter-bound workloads do:
    numpy calls on 512-cell arrays, interpreted float arithmetic and float
    formatting.  It uses no package code, so no change to the package moves
    it; it moves only with the speed the host gives the process.
    """
    t0 = time.perf_counter()
    w = np.linspace(0.0, 1.0, 512)
    for _ in range(60):
        d = np.diff(np.concatenate([w[-2:], w, w[:2]]))
        w = 0.5 * (w + np.minimum(np.abs(d[:-3]), np.abs(d[3:]))) + 1e-3
    acc = 0.0
    for k in range(5000):
        acc += (k * 0.5) % 3.0
    text = ",".join(format(x, ".17g") for x in w[:100])
    elapsed = time.perf_counter() - t0
    if not (math.isfinite(acc) and text):
        raise RuntimeError("reference kernel produced no result")
    return elapsed


def tail_latency(latencies):
    """Latency at the highest percentile with at least 10 jobs beyond it.

    Returns (value, percentile, count): the value has exactly
    MIN_TAIL_BEYOND larger-ranked jobs after it in sorted order, so it is the
    nearest-rank percentile 100 * (count - 10) / count.
    """
    count = len(latencies)
    if count <= MIN_TAIL_BEYOND:
        raise ValueError(f"need more than {MIN_TAIL_BEYOND} jobs for a tail, got {count}")
    ranked = sorted(latencies)
    return ranked[count - MIN_TAIL_BEYOND - 1], 100.0 * (count - MIN_TAIL_BEYOND) / count, count


def environment() -> dict:
    """Machine, CPU model and caches, core count and library versions."""
    info = {"machine": platform.machine(), "python": platform.python_version(),
            "numpy": np.__version__, "nproc": os.cpu_count()}
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    info["cpu"] = line.split(":", 1)[1].strip()
                    break
    caches = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for idx in sorted(base.glob("index*")):
        with contextlib.suppress(OSError):
            level = (idx / "level").read_text().strip()
            kind = (idx / "type").read_text().strip()
            caches[f"L{level} {kind}"] = (idx / "size").read_text().strip()
    info["caches"] = caches
    info["threads_env"] = {v: os.environ[v] for v in
                           ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
    return info


def write_configs(jobs, workdir: Path):
    """Write each job's config and the job list itself; return the config paths."""
    cfg_dir = workdir / "configs"
    cfg_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    for job in jobs:
        path = cfg_dir / f"{job['id']}.json"
        path.write_text(json.dumps(job["config"], indent=2, sort_keys=True), encoding="utf-8")
        paths.append(path)
    (workdir / "jobs.json").write_text(json.dumps(jobs, indent=2, sort_keys=True),
                                       encoding="utf-8")
    return paths


def probe_setup(workload: str, seed: int, workdir: Path):
    """Set up once as a fresh CLI process would, print the monotonic clock,
    then print the median time of the reference kernel in this process."""
    import shearwaves.cli  # noqa: F401

    write_configs(workloads.generate(workload, seed), workdir)
    ready = time.monotonic()
    ref = statistics.median(reference_seconds() for _ in range(7))
    print(repr(ready), repr(ref))


def measure_setup(workload: str, seed: int, workdir: Path):
    """Seconds from a fresh process's launch to its first job being ready,
    and the reference time that process measured after it."""
    launched = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
         "--workload", workload, "--seed", str(seed), "--workdir", str(workdir)],
        capture_output=True, text=True, timeout=120, check=True)
    ready, ref = map(float, proc.stdout.strip().splitlines()[-1].split())
    return ready - launched, ref


def job_work(job, outdir: Path) -> dict:
    """Cell updates and CSV rows of one finished job, read from its manifest."""
    if job["expect"] != 0 or job["command"] not in ("simulate", "exact"):
        return {"cells": 0, "rows": 0}
    manifest = json.loads((outdir / "manifest.json").read_text(encoding="utf-8"))
    if job["command"] == "exact":
        return {"cells": 0, "rows": manifest["rows"]}
    n = manifest["grid"]["n"]
    return {"cells": n * manifest["diagnostics"]["n_steps"],
            "rows": n * len(manifest["diagnostics"]["snapshot_coords"])}


class Runner:
    """Runs jobs through the CLI in-process and checks each one's output."""

    def __init__(self, jobs, paths, workdir, tracer=None):
        import shearwaves.cli as cli
        from checks import check_job

        self.cli, self.check_job = cli, check_job
        self.jobs, self.paths, self.workdir = jobs, paths, workdir
        self.tracer = tracer
        self.attempted = 0
        self.failures = []
        self.oracle_errors = []
        self.work = {}

    def run_job(self, job, path, traced) -> float:
        """Run one job, check it, and return its latency in seconds."""
        outdir = self.workdir / "out" / job["id"]
        shutil.rmtree(outdir, ignore_errors=True)
        argv = [job["command"], "--config", str(path), "--out", str(outdir), "--quiet"]
        out, err = io.StringIO(), io.StringIO()
        if traced:
            self.tracer.job = job["id"]
            self.tracer.install()
        code = None
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # an escaping exception is a failed job; the run goes on
            err.write(f"uncaught {type(exc).__name__}: {exc}")
        latency = time.perf_counter() - t0
        if traced:
            self.tracer.uninstall()
        self.attempted += 1
        ok, detail, oracle_err = self.check_job(job, code, outdir, err.getvalue())
        if not ok:
            self.failures.append(f"{job['id']}: {detail}")
        elif oracle_err is not None:
            self.oracle_errors.append(oracle_err)
        if job["id"] not in self.work:
            self.work[job["id"]] = job_work(job, outdir) if ok else {"cells": 0, "rows": 0}
        return latency

    def run_round(self, traced=False) -> dict:
        """Run the job list once: job latencies and the round's reference time.

        The reference kernel runs before every job and after the last one,
        outside the jobs' timing, and the round keeps the median of those
        times.
        """
        latencies, refs = [], []
        for job, path in zip(self.jobs, self.paths):
            refs.append(reference_seconds())
            latencies.append(self.run_job(job, path, traced))
        refs.append(reference_seconds())
        return {"lat": latencies, "ref": statistics.median(refs)}


def work_rate(workload, jobs, work, latencies):
    """Work per second in one round.

    Cell updates over the time of the simulate jobs on the evolve workloads,
    CSV rows over the round's wall time on artifact_write, solved points over
    the round's wall time on implicit_fields.
    """
    if workload in ("evolve_coarse", "evolve_fine"):
        sim = [(work[j["id"]]["cells"], t) for j, t in zip(jobs, latencies)
               if j["command"] == "simulate"]
        return sum(c for c, _ in sim) / sum(t for _, t in sim)
    if workload == "artifact_write":
        return sum(work[j["id"]]["rows"] for j in jobs) / sum(latencies)
    return sum(j["points"] for j in jobs) / sum(latencies)


def timings(workload, jobs, work, rounds, scale=True) -> dict:
    """Round wall time, job latency median and tail, and work rate of a run.

    With ``scale`` every time is divided by its round's reference time, so
    the values are in refs and a host that slows the process as a whole
    moves them little.  Without it they are wall-clock seconds.  Each
    figure is a median over rounds, or over all job latencies of the run.
    """
    div = [rnd["ref"] if scale else 1.0 for rnd in rounds]
    lat = [[t / d for t in rnd["lat"]] for rnd, d in zip(rounds, div)]
    flat = [t for rnd in lat for t in rnd]
    tail, pct, count = tail_latency(flat)
    return {
        "wall": statistics.median(sum(rnd) for rnd in lat),
        "job_p50": statistics.median(flat),
        "job_tail": tail,
        "work_per": statistics.median(work_rate(workload, jobs, work, rnd) for rnd in lat),
        "tail_pct": pct,
        "tail_n": count,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--workdir", type=Path, default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "shearwaves" / "cli.py").is_file():
        print(f"shearwaves sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workdir = args.workdir or ROOT / ".bench_out" / args.workload
    if args.probe_setup:
        probe_setup(args.workload, args.seed, workdir)
        return 0

    shutil.rmtree(workdir, ignore_errors=True)

    from tracer import Tracer, layer_metrics

    jobs = workloads.generate(args.workload, args.seed)
    paths = write_configs(jobs, workdir)
    tracer = Tracer() if args.trace else None
    runner = Runner(jobs, paths, workdir, tracer)
    runner.run_round()  # warm-up: first calls in a process are slower

    setup, plain, traced_rounds, layer_rounds = [], [], [], []
    start = time.perf_counter()
    while True:
        # set-up probes are spread over the run, so they see the host as the jobs do
        if len(setup) < SETUP_PROBES and (
                time.perf_counter() - start >= len(setup) * args.seconds / SETUP_PROBES):
            setup.append(measure_setup(args.workload, args.seed,
                                       workdir / "setup" / f"probe{len(setup)}"))
        traced = bool(args.trace) and len(plain) > len(traced_rounds)
        first_span = len(tracer.spans) if traced else 0
        if traced:
            tracer.counts.clear()
        rnd = runner.run_round(traced)
        if traced:
            traced_rounds.append(rnd)
            layer_rounds.append(layer_metrics(tracer.spans[first_span:], tracer.counts,
                                              sum(j["points"] for j in jobs)))
        else:
            plain.append(rnd)
        enough_jobs = len(jobs) * len(plain) > MIN_TAIL_BEYOND
        if (time.perf_counter() - start >= args.seconds and enough_jobs
                and len(setup) == SETUP_PROBES and (not args.trace or traced_rounds)):
            break

    (workdir / "rounds.json").write_text(json.dumps(
        {"jobs": [j["id"] for j in jobs], "setup": setup, "plain": plain,
         "traced": traced_rounds}), encoding="utf-8")
    raw = timings(args.workload, jobs, runner.work, plain, scale=False)
    ref = timings(args.workload, jobs, runner.work, plain)
    e2e = {
        "setup_s": NOMINAL_REF_S * statistics.median(wall / ref for wall, ref in setup),
        "wall_ref": ref["wall"],
        "job_p50_ref": ref["job_p50"],
        "job_tail_ref": ref["job_tail"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "work_per_ref": ref["work_per"],
    }

    env = environment()
    print(f"# shearwaves benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"# environment: {json.dumps(env, sort_keys=True)}")
    print(f"# rounds: {len(plain)} untraced, {len(traced_rounds)} traced; "
          f"{len(jobs)} jobs per round; setup probes {', '.join(f'{t:.4f}' for t, _ in setup)} s")
    for name, unit in END_TO_END.items():
        print(f"{name} = {e2e[name]:.6g} {unit}")
    ref_s = statistics.median(rnd["ref"] for rnd in plain)
    print(f"reference kernel: median {ref_s:.6g} s; one ref is that time in the same round")
    print(f"setup wall clock = {statistics.median(t for t, _ in setup):.6g} s  "
          f"(setup_s scales each probe to a {NOMINAL_REF_S * 1e3:g} ms reference time)")
    for name in ("wall", "job_p50", "job_tail"):
        print(f"{name}_s = {raw[name]:.6g} s  (wall clock)")
    alias, alias_unit = WORK_UNIT[args.workload]
    print(f"{alias} = {raw['work_per']:.6g} {alias_unit}  (wall clock; work_per_ref counts per ref)")
    print(f"job_tail is the p{ref['tail_pct']:.2f} latency over {ref['tail_n']} jobs")
    print(f"failed_share = {len(runner.failures) / runner.attempted:.6g} ratio "
          f"({len(runner.failures)} of {runner.attempted} jobs)")
    if runner.oracle_errors:
        print(f"oracle_err_max = {max(runner.oracle_errors):.6g} abs")
    for line in runner.failures[:20]:
        print(f"FAILED {line}")

    if args.trace:
        metrics = {k: statistics.median(r[k] for r in layer_rounds) for k in layer_rounds[0]}
        traced_wall = statistics.median(sum(r["lat"]) / r["ref"] for r in traced_rounds)
        metrics["trace.overhead_share"] = (traced_wall - e2e["wall_ref"]) / e2e["wall_ref"]
        for name, value in metrics.items():
            print(f"{name} = {value:.6g} {PER_LAYER_UNITS[name]}")
        tracer.write(workdir / "spans.csv")
    else:
        metrics = e2e
    units = PER_LAYER_UNITS if args.trace else END_TO_END
    result = {
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
