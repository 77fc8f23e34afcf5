#!/usr/bin/env python3
"""Benchmark of the effchan CLI: end-to-end cost per trial and per quantization.

Run from the repository root (stdlib and numpy only; effchan is imported from
``src/`` of the same checkout, nothing is installed):

    python3 bench/run.py --workload sweep_fixed_b2 --seed 1 --seconds 20 --trace 0
    python3 bench/run.py                  # every workload, one process each
    python3 bench/run.py --self-test      # tracer check on tiny configs

A measured call is one in-process ``effchan.cli.main([...])`` on a config
file generated for the workload, at ``--threads 1``, with the call's seed on
the command line.  Calls repeat until ``--seconds`` are used (at least two).
The first two calls of a run share a seed: their output files must be
byte-identical.

Timings are medians over the run's calls, with interpreter-bound times
normalized to a reference machine speed.  On a shared machine, interpreted
code runs up to 1.7x slower in spells of 10 to 100 seconds, so raw sweep
timings spread by 25-40% between runs.  A fixed pure-Python loop
(``calibration_s``) is timed next to every sweep call and every set-up
spawn, and each such time is scaled by ``CAL_NOMINAL_S`` over the loop's
time; the spread falls to about 7%.  The normalized times read as seconds on
the machine at the speed where the loop takes ``CAL_NOMINAL_S``.  Validate
is vectorized numpy whose speed the loop does not track (normalizing widened
its spread), so its calls are timed raw.  Sweep calls are kept short (a few
hundred trials, under a second) so that a run holds many of them.  The
normalization is sound only while the sweep is interpreter-bound: once numpy
dominates a call, the loop's slow spells would shrink its normalized time.  So
each run also prints, on a ``# raw`` line, the same metrics from raw times and
the median calibration time, to compare against.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced calls on equal seeds and reports, per traced call, the
call count and self time of every public function the modules call by name
(see ``TRACE_TARGETS``), a few counts computed from the arguments, and the
tracing overhead.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  The exit code is 0 only
when every output check passed.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from tracer import Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_work"
REFERENCE_FILE = BENCH_DIR / "reference.json"

DEFAULT_SECONDS = 30
SETUP_SPAWNS = (7, 15)  # fresh interpreters per run, at least and at most
CAL_LOOPS = 150_000
CAL_NOMINAL_S = 0.010  # calibration_s() on a quiet 2-core Xeon, Python 3.11
SETTLE_S = 0.15
MIN_CALLS = 2  # the first two calls share a seed (determinism check)
# A sweep row's mean may sit this many standard deviations from the
# reference mean: the larger of the seed-to-seed sd recorded with the
# reference (which holds the codebook-to-codebook spread of fixed codebooks)
# and the row's own CI / 1.96.  6 sd is about 3 CIs.  This catches gross
# errors in a single call.
REFERENCE_SDS = 6.0
# The mean of a row over a run's distinct seeds may sit this many standard
# deviations from the reference mean, sd = sd_ref * sqrt(1/calls + 1/seeds of
# the reference).  This catches a bias of a few percent.
MEAN_SDS = 5.0


@dataclass(frozen=True)
class Workload:
    command: str  # CLI subcommand
    config: dict  # key = value config file contents (lists as tuples)
    calibrated: bool = True  # normalize call times by calibration_s()

    @property
    def trials_per_call(self) -> int:
        """Monte Carlo trials per call: fading blocks, or validation samples."""
        c = self.config
        if self.command == "sweep":
            return c["trials"] * len(c["n_rx"]) * len(c["snr_db"])
        return c["samples"]

    @property
    def quantizations_per_call(self) -> int:
        """Channel quantizations per call: every user quantizes once a trial."""
        if self.command == "sweep":
            return self.trials_per_call * self.config["m"]
        return self.trials_per_call

    def config_text(self) -> str:
        lines = []
        for key, value in self.config.items():
            if isinstance(value, tuple):
                value = ", ".join(str(v) for v in value)
            lines.append(f"{key} = {value}")
        return "\n".join(lines) + "\n"


# Why each workload is here is recorded in BENCHMARK.json; in short:
# sweep_fixed_b2 is bound by per-call Python cost (RNG set-up, Gram-Schmidt,
# inverse) and skips the codebook draw; sweep_block_b10 is bound by the
# per-block codebook draw and scan; validate_b8 is the batched collector.
WORKLOADS = {
    "sweep_fixed_b2": Workload("sweep", {
        "m": 4, "n_rx": (1, 2, 3), "bits": 2, "codebook_policy": "fixed",
        "snr_db": (10,), "trials": 200}),
    "sweep_block_b10": Workload("sweep", {
        "m": 8, "n_rx": (2,), "bits": 10, "codebook_policy": "per_block",
        "snr_db": (10,), "trials": 120}),
    # the CLI defaults, written out so the sample count is known here
    "validate_b8": Workload("validate", {
        "m": 4, "n_rx": 2, "bits": 8, "samples": 100_000}, calibrated=False),
}

# Public functions each module calls by name, as "module.function".
TRACE_TARGETS = (
    "cli.main",
    "experiment.run_experiment",
    "experiment.run_trial",
    "linalg.RngStream.generator",
    "linalg.complex_normal",
    "linalg.gram_schmidt",
    "linalg.normal_solve",
    "linalg.invert_square",
    "quantize.generate_codebook",
    "quantize.quantize_effective",
    "precoding.zfbf_vectors",
    "precoding.sinr",
    "precoding.sum_rate",
    "precoding.perfect_csit_rate",
    "validate.run_validation_suite",
    "validate.collect_effective_samples",
    "validate.quantization_angle_report",
    "validate.direction_isotropy_report",
    "validate.effective_gain_report",
    "validate.quant_error_mean_report",
    "stats.ks_test",
    "stats.isotropy_report",
    "stats.max_beta_cdf",
    "stats.gamma_cdf",
    "stats.mean_ci",
    "formulas.quant_error_approx",
)

# The functions that own a run's trials; traced in every call (three spans a
# call at most) so the type of an exception that aborts a run is recorded.
FAILURE_TARGETS = ("experiment.run_experiment", "validate.run_validation_suite")


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _gaussians(args, kwargs) -> int:
    shape = _arg(args, kwargs, 1, "shape")
    return math.prod(shape) if isinstance(shape, tuple) else int(shape)


def _codebook_bytes(args, kwargs) -> int:
    return _arg(args, kwargs, 1, "codebook").vectors.nbytes  # 2^B * M * 16


# Counts computed from the arguments of each call, not timed.
COUNTERS = {
    "linalg.complex_normal": ("linalg.complex_normal.gaussians", _gaussians),
    "quantize.quantize_effective": ("quantize.codebook_bytes_scanned", _codebook_bytes),
}
COUNTER_UNITS = {"linalg.complex_normal.gaussians": "count",
                 "quantize.codebook_bytes_scanned": "bytes"}


# ------------------------------------------------------------------ the program


def load_effchan():
    """Import effchan from this checkout's src/, never from anywhere else."""
    if not (SRC / "effchan" / "__init__.py").is_file():
        raise SystemExit(f"error: no effchan package under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import effchan.cli

    if SRC.resolve() not in Path(effchan.cli.__file__).resolve().parents:
        raise SystemExit(f"error: imported effchan from {effchan.cli.__file__}, not {SRC}")
    return effchan.cli


@contextlib.contextmanager
def work_dir(name: str):
    """A fresh scratch directory under the checkout, removed afterwards."""
    work = WORK_ROOT / f"{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        yield work
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_ROOT.rmdir()  # only when no other run is using it


def calibration_s() -> float:
    """Seconds a fixed pure-Python loop takes now: the machine's current speed.

    The fastest of three repeats, so that a single preemption does not count.
    """
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        total = 0
        for i in range(CAL_LOOPS):
            total += i * i % 7
        times.append(time.perf_counter() - t0)
    return min(times)


def settled_calibration_s() -> float:
    """calibration_s() after a pause: right after a call that used BLAS threads,
    interpreted code runs up to 2x slower for about 0.1 s."""
    time.sleep(SETTLE_S)
    return calibration_s()


def time_setup() -> float:
    """Seconds from a fresh interpreter to an imported effchan.cli."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import effchan.cli"], env=env, cwd=ROOT,
                   check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


@dataclass
class Call:
    seed: int
    out_dir: Path
    wall_s: float = 0.0
    code: int | None = None  # CLI exit code; None when main raised
    errors: Counter = field(default_factory=Counter)  # exception type -> count
    stderr: str = ""


def run_call(cli, workload: Workload, config_path: Path, seed: int, out_dir: Path,
             tracer: Tracer) -> Call:
    """One effchan CLI invocation, timed around ``cli.main`` only."""
    argv = [workload.command, "--config", str(config_path), "--seed", str(seed),
            "--out", str(out_dir)]
    if workload.command == "sweep":
        argv += ["--threads", "1"]
    # each call starts as cold as a fresh process: drop the collector's memo
    collector = getattr(sys.modules.get("effchan.validate"), "collect_effective_samples", None)
    getattr(collector, "cache_clear", lambda: None)()
    call = Call(seed=seed, out_dir=out_dir)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err), tracer:
        t0 = time.perf_counter()
        try:
            call.code = cli.main(argv)
        except Exception as exc:  # a raising workload is counted, not fatal
            call.errors[type(exc).__name__] += 1
            traceback.print_exc()
        call.wall_s = time.perf_counter() - t0
    for (_, exc_type), count in tracer.errors.items():
        call.errors[exc_type] += count
    call.stderr = err.getvalue()
    return call


# ---------------------------------------------------------------------- checks


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    reasons: Counter = field(default_factory=Counter)
    problems: list = field(default_factory=list)
    row_values: dict = field(default_factory=dict)  # (row, key) -> {seed: value}


def read_csv(path: Path) -> tuple[str, list[dict]]:
    lines = path.read_text().splitlines()
    keys = lines[0].split(",")
    return lines[0], [dict(zip(keys, line.split(","))) for line in lines[1:]]


def _last_line(text: str) -> str:
    lines = text.strip().splitlines()
    return lines[-1] if lines else ""


def check_sweep(workload: Workload, call: Call, ref: dict, tally: Tally) -> None:
    n = workload.trials_per_call
    tally.attempted += n
    if call.code != 0:
        tally.failed += n
        tally.problems.append(f"seed {call.seed}: exit {call.code}, {dict(call.errors)}, "
                              f"{_last_line(call.stderr)}")
        return
    header, rows = read_csv(call.out_dir / "sweep.csv")
    manifest = json.loads((call.out_dir / "manifest.json").read_text())
    dropped = sum(int(r["dropped"]) for r in rows)
    tally.failed += dropped
    if dropped:
        tally.reasons["dropped trial"] += dropped
    if header != ref["header"]:
        tally.problems.append(f"seed {call.seed}: header {header!r}")
    if len(rows) != len(ref["rows"]) or len(manifest["rows"]) != len(ref["rows"]):
        tally.problems.append(f"seed {call.seed}: {len(rows)} rows, want {len(ref['rows'])}")
        return
    for i, (row, want) in enumerate(zip(rows, ref["rows"])):
        if int(row["n_rx"]) != want["n_rx"] or int(row["bits"]) != want["bits"]:
            tally.problems.append(f"seed {call.seed}: row {row} is not n_rx={want['n_rx']}")
            continue
        for key in ("rate_fb_mean", "rate_zf_mean"):
            got, mean = float(row[key]), want[key]
            tally.row_values.setdefault((i, key), {})[call.seed] = got
            sd = max(want[key + "_sd"], float(row[key.replace("_mean", "_ci")]) / 1.96)
            if not abs(got - mean) <= REFERENCE_SDS * sd:
                tally.problems.append(
                    f"seed {call.seed}: n_rx={want['n_rx']} {key} {got:.4f}, "
                    f"reference {mean:.4f} +- {REFERENCE_SDS:g} x {sd:.4f}")


def check_validate(workload: Workload, call: Call, ref: dict, tally: Tally) -> None:
    path = call.out_dir / "validation.json"
    if call.code not in (0, 2) or not path.is_file():
        tally.attempted += len(ref["reports"])
        tally.failed += len(ref["reports"])
        tally.problems.append(f"seed {call.seed}: exit {call.code}, {dict(call.errors)}, "
                              f"{_last_line(call.stderr)}")
        return
    payload = json.loads(path.read_text())
    reports = payload["reports"]
    failed = [r["name"] for r in reports if not r["passed"]]
    tally.attempted += len(reports)
    tally.failed += len(failed)
    tally.reasons.update(f"report failed: {name}" for name in failed)
    if payload["passed"] is not True or call.code != 0:
        tally.problems.append(f"seed {call.seed}: validation failed {failed}")
    if [r["name"] for r in reports] != ref["reports"]:
        tally.problems.append(f"seed {call.seed}: reports {[r['name'] for r in reports]}")


def check_sweep_means(ref: dict, tally: Tally) -> None:
    """Each row's mean over the run's distinct seeds against the reference."""
    for (i, key), by_seed in sorted(tally.row_values.items()):
        want = ref["rows"][i]
        sd = want[key + "_sd"] * math.sqrt(1 / len(by_seed) + 1 / ref["seeds"])
        got = statistics.fmean(by_seed.values())
        if not abs(got - want[key]) <= MEAN_SDS * sd:
            tally.problems.append(
                f"n_rx={want['n_rx']} {key} over {len(by_seed)} seeds {got:.4f}, "
                f"reference {want[key]:.4f} +- {MEAN_SDS:g} x {sd:.4f}")


def check_call(name: str, call: Call, reference: dict, tally: Tally) -> None:
    workload = WORKLOADS[name]
    tally.reasons.update({f"raised {k}": v for k, v in call.errors.items()})
    if call.code not in (0, None):
        tally.reasons[f"exit {call.code}"] += 1
    if name not in reference:
        tally.problems.append(f"no reference values for {name} in {REFERENCE_FILE.name}")
        return
    check = check_sweep if workload.command == "sweep" else check_validate
    try:
        check(workload, call, reference[name], tally)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        tally.problems.append(f"seed {call.seed}: unreadable output ({exc!r})")


def check_run(name: str, calls: list, reference: dict, tally: Tally) -> None:
    """Checks over all of a run's calls, after each call's own check."""
    check_determinism(calls, tally)
    if WORKLOADS[name].command == "sweep" and name in reference:
        check_sweep_means(reference[name], tally)


def check_determinism(calls: list, tally: Tally) -> None:
    """Calls on one seed must write byte-identical files."""
    by_seed: dict = {}
    for call in calls:
        if call.code == 0:
            by_seed.setdefault(call.seed, []).append(call)
    for seed, group in by_seed.items():
        first = {p.name: p.read_bytes() for p in sorted(group[0].out_dir.iterdir())}
        for other in group[1:]:
            again = {p.name: p.read_bytes() for p in sorted(other.out_dir.iterdir())}
            if again != first:
                differ = sorted(k for k in first.keys() | again.keys()
                                if first.get(k) != again.get(k))
                tally.problems.append(f"seed {seed}: repeat differs in {differ}")
    if not any(len(group) > 1 for group in by_seed.values()):
        tally.problems.append("no two successful calls on one seed to compare")


# --------------------------------------------------------------------- runs


def _keep_going(start: float, walls: list, seconds: float, done: int, minimum: int) -> bool:
    if done < minimum:
        return True
    return time.perf_counter() - start + 0.5 * statistics.median(walls) < seconds


def run_untraced(cli, name: str, rng: random.Random, seconds: float, work: Path, config: Path,
                 reference: dict) -> tuple[dict, Tally]:
    workload = WORKLOADS[name]
    tally = Tally()
    calls, setups, cals = [], [], []  # setups: (raw s, calibration s)
    start = time.perf_counter()
    while True:
        cals.append(settled_calibration_s())
        if not _keep_going(start, [c.wall_s for c in calls], seconds, len(calls), MIN_CALLS):
            break
        if len(setups) < SETUP_SPAWNS[1]:
            setups.append((time_setup(), cals[-1]))
        if len(calls) != 1:  # calls 0 and 1 share a seed
            seed = rng.randrange(2 ** 31)
        call = run_call(cli, workload, config, seed, work / f"call{len(calls)}",
                        Tracer("effchan", FAILURE_TARGETS))
        check_call(name, call, reference, tally)
        calls.append(call)
    while len(setups) < SETUP_SPAWNS[0]:
        setups.append((time_setup(), cals[-1]))
    check_run(name, calls, reference, tally)
    raw_walls = [c.wall_s for c in calls]
    walls = raw_walls
    if workload.calibrated:  # each call against the loop timed before and after it
        walls = [w * CAL_NOMINAL_S * 2 / (a + b) for w, a, b in zip(walls, cals, cals[1:])]
    wall = statistics.median(walls)
    print(f"# {len(walls)} calls, wall s{' (normalized)' * workload.calibrated}: "
          f"fastest {min(walls):.4f}, median {wall:.4f}, slowest {max(walls):.4f}")

    def timings(wall_s: float, setup_s: float) -> dict:
        return {"us_per_trial": (wall_s / workload.trials_per_call * 1e6, "us"),
                "quantizations_per_s": (workload.quantizations_per_call / wall_s, "1/s"),
                "setup_s": (setup_s, "s")}

    raw = {key: value for key, (value, _) in timings(
        statistics.median(raw_walls), statistics.median(s for s, _ in setups)).items()}
    raw["wall_s"] = statistics.median(raw_walls)
    raw["calibration_s"] = statistics.median(cals)
    print("# raw " + json.dumps(raw))
    metrics = timings(wall, statistics.median(s * CAL_NOMINAL_S / c for s, c in setups))
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    metrics["success_frac"] = (1.0 - tally.failed / max(tally.attempted, 1), "frac")
    return metrics, tally


def run_traced(cli, name: str, rng: random.Random, seconds: float, work: Path, config: Path,
               reference: dict) -> tuple[dict, Tally]:
    workload = WORKLOADS[name]
    tally = Tally()
    calls, plain_walls, traced_walls, pair_walls = [], [], [], []
    self_ns = Counter()
    call_counts = Counter()
    counts = Counter()
    absent: set = set()
    start = time.perf_counter()
    while _keep_going(start, pair_walls, seconds, len(pair_walls), 1):
        seed = rng.randrange(2 ** 31)
        plain = run_call(cli, workload, config, seed, work / f"call{len(calls)}",
                         Tracer("effchan", FAILURE_TARGETS))
        calls.append(plain)
        tracer = Tracer("effchan", TRACE_TARGETS, COUNTERS)
        traced = run_call(cli, workload, config, seed, work / f"call{len(calls)}", tracer)
        calls.append(traced)
        for target, (n_calls, ns) in tracer.summary().items():
            call_counts[target] += n_calls
            self_ns[target] += ns
        counts.update(tracer.counts)
        absent.update(tracer.absent)
        plain_walls.append(plain.wall_s)
        traced_walls.append(traced.wall_s)
        pair_walls.append(plain.wall_s + traced.wall_s)
    for call in calls:
        check_call(name, call, reference, tally)
    check_run(name, calls, reference, tally)
    if absent:
        print(f"trace: absent names {sorted(absent)}", file=sys.stderr)

    n = len(traced_walls)
    metrics = {}
    for target in TRACE_TARGETS:
        metrics[f"{target}.calls"] = (call_counts[target] / n, "count")
        metrics[f"{target}.self_ms"] = (self_ns[target] / n / 1e6, "ms")
    for counter_name, unit in COUNTER_UNITS.items():
        metrics[counter_name] = (counts[counter_name] / n, unit)
    # sweeps count trials, so kept over attempted; validate runs no trials
    metrics["experiment.kept_frac"] = (
        1.0 - tally.failed / tally.attempted if workload.command == "sweep" else 1.0, "frac")
    metrics["trace.wall_ms"] = (sum(traced_walls) / n * 1e3, "ms")
    metrics["trace.overhead_frac"] = (min(traced_walls) / min(plain_walls) - 1.0, "frac")
    # Wall time that no wrapped function below the CLI accounts for: config
    # parse and output writing in cli.main, plus the call's own wrapper.
    # Helpers that are not wrapped count in their traced parent's self time.
    below_cli_ns = sum(ns for target, ns in self_ns.items() if target != "cli.main")
    metrics["trace.untraced_ms"] = ((sum(traced_walls) * 1e9 - below_cli_ns) / n / 1e6, "ms")
    metrics["trace.absent_names"] = (len(absent), "count")
    return metrics, tally


# ------------------------------------------------------------------ reporting


def _blas_threads():
    """OpenBLAS thread count, read from the library numpy loaded (Linux only)."""
    try:
        with open("/proc/self/maps") as maps:
            paths = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment() -> dict:
    import numpy as np

    cpu = None
    try:
        with open("/proc/cpuinfo") as info:
            cpu = next((line.split(":", 1)[1].strip() for line in info
                        if line.startswith("model name")), None)
    except OSError:
        pass
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu or platform.processor(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(),
    }


def run_one(name: str, seed: int, seconds: float, trace: bool) -> int:
    cli = load_effchan()
    reference = json.loads(REFERENCE_FILE.read_text())
    with work_dir(name) as work:
        config = work / "workload.cfg"
        config.write_text(WORKLOADS[name].config_text())
        runner = run_traced if trace else run_untraced
        metrics, tally = runner(cli, name, random.Random(seed), seconds, work, config,
                                reference)

    for problem in tally.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    if tally.reasons:
        print(f"failures: {dict(tally.reasons)}", file=sys.stderr)
    correct = not tally.problems
    print("# env " + json.dumps(environment(), sort_keys=True))
    print(f"# {name} seed={seed} trace={int(trace)} correct={correct} "
          f"attempted={tally.attempted} failed={tally.failed}")
    for key, (value, unit) in metrics.items():
        label = " (computed from arguments)" if key in COUNTER_UNITS else ""
        print(f"#   {key:<44} {value:>14.6g} {unit}{label}")
    result = {
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {key: {"value": value, "unit": unit}
                    for key, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload in its own process (so peak RSS is per workload)."""
    results, code = {}, 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))],
            cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines() or [""]
        print("\n".join(lines[:-1]))
        try:
            results[name] = json.loads(lines[-1])
        except ValueError:  # the run died before printing its result
            results[name] = None
        code = code or proc.returncode
    print(json.dumps(results))
    return code


# ------------------------------------------------------------------ self-test


def self_test() -> int:
    """Trace tiny configs and compare call counts with the ones the code implies.

    The counts hold for the module layout of this commit; a target that a
    later change deletes must read zero calls and be reported as absent.
    """
    cli = load_effchan()
    m = 3
    cases = {
        # fixed: 2M generator calls a trial (channel, benchmark) plus M a grid
        # point (the fixed codebooks); 2 n_rx x 2 SNR = 4 grid points, 5 trials
        "fixed": (Workload("sweep", {"m": m, "n_rx": (1, 2), "bits": 2,
                                     "codebook_policy": "fixed", "snr_db": (0, 10),
                                     "trials": 5}), {
            "cli.main": 1,
            "experiment.run_experiment": 2,
            "experiment.run_trial": 20,
            "linalg.RngStream.generator": 2 * m * 20 + m * 4,
            "linalg.complex_normal": 2 * m * 20 + m * 4,
            "quantize.generate_codebook": m * 4,
            "quantize.quantize_effective": m * 20,
            "linalg.gram_schmidt": m * 20,
            "linalg.normal_solve": m * 20,
            "precoding.zfbf_vectors": 2 * 20,
            "linalg.invert_square": 2 * 20,
            "precoding.sinr": m * 20,
            "precoding.sum_rate": 20,
            "precoding.perfect_csit_rate": 20,
            "stats.mean_ci": 2 * 4,
            "validate.collect_effective_samples": 0,
            # channel M x N and benchmark M per user and trial, 2^B x M a codebook
            "linalg.complex_normal.gaussians": m * (m * 1 + m) * 10 + m * (m * 2 + m) * 10
                                               + m * 4 * 2 ** 2 * m,
            "quantize.codebook_bytes_scanned": m * 20 * 2 ** 2 * m * 16,
        }),
        # per_block: a codebook stream per user and trial, 3M generator calls
        "per_block": (Workload("sweep", {"m": m, "n_rx": (2,), "bits": 3,
                                         "codebook_policy": "per_block", "snr_db": (10,),
                                         "trials": 4}), {
            "experiment.run_trial": 4,
            "linalg.RngStream.generator": 3 * m * 4,
            "quantize.generate_codebook": m * 4,
            "quantize.codebook_bytes_scanned": m * 4 * 2 ** 3 * m * 16,
        }),
        # validate: one chunk (channels then codebooks), four reports on one
        # memoized pool
        "validate": (Workload("validate", {"m": m, "n_rx": 1, "bits": 2, "samples": 1000}), {
            "validate.run_validation_suite": 1,
            "validate.collect_effective_samples": 4,
            "validate.quantization_angle_report": 1,
            "validate.direction_isotropy_report": 1,
            "validate.effective_gain_report": 1,
            "validate.quant_error_mean_report": 1,
            "stats.ks_test": 2,
            "stats.isotropy_report": 1,
            "formulas.quant_error_approx": 1,
            "linalg.complex_normal": 2,
            "linalg.complex_normal.gaussians": 1000 * m * 1 + 1000 * 2 ** 2 * m,
            "experiment.run_trial": 0,
        }),
    }
    missing = ("linalg.no_such_function", "no_such_module.f", "linalg.RngStream.no_such_method")
    problems = []

    def snapshot():
        mods = [mod for key, mod in sys.modules.items() if key.split(".")[0] == "effchan"]
        classes = [sys.modules["effchan.linalg"].RngStream]
        return {(id(o), k): v for o in mods + classes for k, v in list(vars(o).items())}

    with work_dir("self-test") as work:
        for case, (workload, expected) in cases.items():
            config = work / f"{case}.cfg"
            config.write_text(workload.config_text())
            before = snapshot()
            tracer = Tracer("effchan", TRACE_TARGETS + missing, COUNTERS)
            call = run_call(cli, workload, config, 7, work / case, tracer)
            if snapshot() != before:
                problems.append(f"{case}: patched attributes were not restored")
            # 1000 samples are too few for the laws to pass (exit 2); only the
            # call counts matter here
            if call.code not in ((0, 2) if workload.command == "validate" else (0,)):
                problems.append(f"{case}: exit {call.code} {dict(call.errors)}\n{call.stderr}")
                continue
            if sorted(tracer.absent) != sorted(missing):
                problems.append(f"{case}: absent {tracer.absent}, want {list(missing)}")
            summary = tracer.summary()
            for key, want in expected.items():
                got = tracer.counts[key] if key in COUNTER_UNITS else summary[key][0]
                if key in tracer.absent:
                    want = 0
                if got != want:
                    problems.append(f"{case}: {key} = {got}, want {want}")
            # self times partition the root spans exactly
            roots = sum(t1 - t0 for _, parent, _, t0, t1 in tracer.spans if parent < 0)
            if sum(ns for _, ns in summary.values()) != roots:
                problems.append(f"{case}: self times do not add up to the root spans")
            if abs(roots / 1e9 - call.wall_s) > 0.05 * call.wall_s + 1e-3:
                problems.append(f"{case}: root spans {roots / 1e9:.4f}s vs wall {call.wall_s:.4f}s")
    for problem in problems:
        print(f"self-test: {problem}", file=sys.stderr)
    print("self-test " + ("FAILED" if problems else f"ok ({len(cases)} cases)"))
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="check the tracer's call counts on tiny configs and exit")
    args = parser.parse_args(argv)
    if args.self_test:
        return self_test()
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
