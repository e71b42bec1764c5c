"""maxdater benchmark: time to a correct CLI report, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload stationary-exp --seed 1 --seconds 60 --trace 0

``--trace 0`` is a closed loop with one client: it starts one fresh process
at a time, cycling through an interpreter that only imports the CLI and
validates the config, ``python -m maxdater.cli`` at ``--threads 1``, and
the same at ``--threads 2``.  Each process starts only while its longest
time so far still fits in ``--seconds``.  It reports medians of

    wall_s       CLI process wall time at --threads 1, interpreter start included
    wall_s.t2    the same at --threads 2 (reports are byte-identical, so only
                 scaling differs)
    setup_s      import maxdater.cli + validate the config in a fresh interpreter
    peak_rss_mb  peak resident set of the --threads 2 process

``--trace 1`` runs the workload in-process with spans around each layer's
public callables (see layers.py) and reports per-layer self times, exact
counts, the tracing overhead and isolated unit costs.

The seed goes into a generated copy of the workload's config in
``configs/``; the program sees only that config.  Every report is checked
(checks.py) and must be byte-identical to the run's first report at either
thread count; a run that fails either counts in ``failed``, and
failed / attempted is the share of failed runs.  The first line of stdout
records the machine and versions, the lines starting with ``#`` give each
metric with its unit and samples, and the last line is
{"correct", "attempted", "failed", "metrics"}.
Nothing here drops caches, pins CPUs or touches cgroups.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from importlib import metadata
from pathlib import Path

import checks

T_START = time.perf_counter()
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench-work"
# every process of a run is killed at this many seconds after the run
# starts, so that a hung program still ends the run within 180 seconds
DEADLINE_S = 165

# name -> (CLI command, config template).  Why each was chosen, and which
# layers it does and does not exercise:
WORKLOADS = {
    # Large numpy blocks in the backward scan: loynes via streams and
    # dists.Exponential.  Threads help.  classify and regen are bypassed.
    "stationary-exp": ("stationary", "stationary-exp.json"),
    # A forward loop over many tiny arrays: regen._renewal_chunk makes ~320k
    # numpy reductions over ~31-row chunks of the fixed 64-chunk plan, so it
    # is interpreter-bound under the GIL and two threads are slower.  loynes
    # is bypassed.  Not listed in BENCHMARK.json: interpreter-bound code is
    # the most sensitive to a shared host, and its wall time spread up to
    # 0.3 (quartile distance over median) across ten 40-second runs on a
    # 2-core VM.  Run it by name to see the regen layer end to end.
    "regen-exp": ("regen", "regen-exp.json"),
    # No analytic rule fits, so the Monte Carlo route runs all three series.
    # Mixture.quantile bisection dominates, then classify._grid_tail_sums
    # and Pareto.tail.  The loynes and regen forward loops are bypassed.
    "classify-mixture": ("classify", "classify-mixture.json"),
}

SETUP_CODE = ("import sys, maxdater.cli as c; "
              "c.validate_config(open(sys.argv[1]).read())")
PROBE_CODE = """\
import json, statistics, sys, time
t0 = time.perf_counter()
import maxdater.cli as c
t1 = time.perf_counter()
text = open(sys.argv[1]).read()
ms = []
for _ in range(50):
    s = time.perf_counter()
    c.validate_config(text)
    ms.append((time.perf_counter() - s) * 1e3)
print(json.dumps({"import_s": t1 - t0,
                  "validate_ms": statistics.median(ms)}))
"""


def machine_context() -> dict:
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            caches[f"L{level}-{kind}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "caches": caches,
        "loadavg": os.getloadavg(),
        "caches_dropped": False,
        "cpus_pinned": False,
        "cgroups_touched": False,
    }


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def timed_process(argv: list[str], env: dict, log: Path):
    """Run one process to completion; returns (wall s, exit code, peak RSS MB)."""
    with open(log, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err, env=env)
        watchdog = threading.Timer(max(0.0, DEADLINE_S - (t0 - T_START)), proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss / 1024.0


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def end_to_end(command: str, config: Path, work: Path, seconds: float):
    env = child_env()
    cli = [sys.executable, "-m", "maxdater.cli", command, "--config", str(config)]
    setup = [sys.executable, "-c", SETUP_CODE, str(config)]
    # untimed warm-up: fills the bytecode and file caches that every later
    # run finds warm, as a user's repeated runs would
    _, code, _ = timed_process(setup, env, work / "setup.log")
    if code != 0:
        raise RuntimeError(f"setup failed: {(work / 'setup.log').read_text()}")

    out = work / "report.json"
    # one process at a time, cycling through the three kinds; a process is
    # started only while its longest time so far still fits in the run
    cycle = (("setup_s", setup), ("wall_s", cli + ["--out", str(out), "--threads", "1"]),
             ("wall_s.t2", cli + ["--out", str(out), "--threads", "2"]))
    samples = {"wall_s": [], "wall_s.t2": [], "setup_s": [], "peak_rss_mb": []}
    longest = {}
    attempted = failed = 0
    problems = []
    first_report = None
    start = time.perf_counter()
    for i in itertools.count():
        key, argv = cycle[i % len(cycle)]
        if i >= len(cycle) and time.perf_counter() - start + longest[key] > seconds:
            break
        out.unlink(missing_ok=True)
        wall, code, rss = timed_process(argv, env, work / f"{key}.log")
        longest[key] = max(longest.get(key, 0.0), wall)
        samples[key].append(wall)
        attempted += 1
        run_problems = [f"{key}: exit code {code}"] if code != 0 else []
        if key != "setup_s":
            if key == "wall_s.t2":
                samples["peak_rss_mb"].append(rss)
            text = out.read_bytes() if out.exists() else b""
            if not run_problems:
                run_problems = checks.check_report(command, text)
            if first_report is None:
                first_report = text
            elif not run_problems and text != first_report:
                run_problems = [f"{key}: report differs from the first report"]
        failed += bool(run_problems)
        problems += run_problems

    units = {"wall_s": "s", "wall_s.t2": "s", "setup_s": "s", "peak_rss_mb": "MB"}
    metrics = {}
    for key, values in samples.items():
        q1, med, q3 = quartiles(values)
        print(f"# {key} = {med:.4f} {units[key]} (median of {len(values)}, "
              f"quartiles {q1:.4f} .. {q3:.4f}; samples "
              + " ".join(f"{v:.4f}" for v in values) + ")")
        metrics[key] = (med, units[key])
    return metrics, attempted, failed, problems


def layers_run(command: str, config: Path, work: Path, seed: int):
    sys.path.insert(0, str(SRC))
    import layers

    metrics, attempted, failed, problems = layers.traced_runs(
        command, config, work, lambda text: checks.check_report(command, text))
    metrics.update(layers.unit_costs(seed))
    probes = [json.loads(subprocess.run(
        [sys.executable, "-c", PROBE_CODE, str(config)], env=child_env(),
        capture_output=True, text=True, timeout=DEADLINE_S, check=True).stdout)
        for _ in range(3)]
    metrics["cli.import_s"] = (statistics.median(p["import_s"] for p in probes), "s")
    metrics["cli.validate_ms"] = (statistics.median(p["validate_ms"] for p in probes), "ms")
    for key, (value, unit) in metrics.items():
        print(f"# {key} = {value:.6g} {unit}")
    return metrics, attempted, failed, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    if not (SRC / "maxdater" / "cli.py").is_file():
        print(f"no maxdater sources under {SRC}", file=sys.stderr)
        return 2
    command, template = WORKLOADS[args.workload]
    body = json.loads((HERE / "configs" / template).read_text())
    body["seed"] = args.seed

    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=WORK_ROOT))
    try:
        config = work / "config.json"
        config.write_text(json.dumps(body, indent=2))
        print(json.dumps({"workload": args.workload, "seed": args.seed,
                          "trace": args.trace, "machine": machine_context()}))
        if args.trace:
            metrics, attempted, failed, problems = layers_run(command, config, work, args.seed)
        else:
            metrics, attempted, failed, problems = end_to_end(command, config, work, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass
    for problem in problems:
        print(f"# FAILED {problem}")
    print(f"# failed_frac = {failed / attempted:.4f} ({failed} of {attempted} runs)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
