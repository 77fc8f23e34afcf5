"""Command-line front end: sum-rate sweeps, bit-budget tables, law validation.

Subcommands
-----------
sweep          Monte Carlo sum-rate sweep over an SNR grid, CSV + manifest out.
scaling-table  Closed-form feedback-bit budgets per (SNR, N) cell, CSV out.
validate       Distributional checks of the quantizer; JSON report out.

Config files are flat ``key = value`` text: ``#`` starts a comment, lists are
comma separated.  This module only parses: the library's config objects
(``ExperimentConfig``, ``ScalingInputs``, ``ValidationConfig``) check the
values, and one they refuse is a config error.  Exit codes: 0 success, 1
config error, 2 validation failure, 3 output I/O error.

Everything written to --out is byte-deterministic in the config and seed;
wall-clock timing and the validation worker count go to stderr only.  Sweeps
and validation both run on one thread per core the process may run on
(``taskset`` limits them); ``sweep --threads`` is still accepted, with a
warning, and ignored.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
import time
from contextlib import contextmanager
from pathlib import Path

from . import __version__
from .experiment import STREAM_VERSION, BitsRule, ExperimentConfig, run_experiment
from .formulas import (
    InfeasibleTargetError,
    ScalingInputs,
    bits_required,
    feedback_savings,
)
from .validate import STREAM_VERSION as VALIDATION_STREAM_VERSION
from .validate import ValidationConfig, run_validation_suite, suite_workers

SWEEP_CSV_HEADER = "snr_db,n_rx,bits,rate_fb_mean,rate_fb_ci,rate_zf_mean,rate_zf_ci,gap,dropped"

_DEFAULT_TRIALS = 2000
_DEFAULT_SAMPLES = 100_000
_DEFAULT_SEED = 12345


class ConfigError(Exception):
    """Bad config file or bad command line; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on usage errors; that code is reserved for
    # validation failures here, so route usage errors through ConfigError
    def error(self, message):
        raise ConfigError(message)


# ---------------------------------------------------------------- config file


def parse_config(text: str) -> dict:
    """Parse flat ``key = value`` config text into {key: (value, line_no)}."""
    entries: dict = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {line_no}: expected 'key = value', got {raw.strip()!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        value = value.strip()
        if not key:
            raise ConfigError(f"line {line_no}: empty key")
        if key in entries:
            raise ConfigError(f"line {line_no}: duplicate key {key!r}")
        entries[key] = (value, line_no)
    return entries


class _Config:
    """Typed, line-anchored access to a config file's parsed entries."""

    def __init__(self, path: str):
        try:
            text = Path(path).read_text()
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        self.entries = parse_config(text)
        self.used: set = set()

    def _raw(self, key: str, required: bool):
        self.used.add(key)
        if required and key not in self.entries:
            raise ConfigError(f"missing required key {key!r}")
        return self.entries.get(key)

    def _parse(self, key: str, kind, text: str, line_no: int):
        try:
            return kind(text)
        except ValueError:
            raise ConfigError(
                f"line {line_no}: {key} must be {kind.__name__}, got {text!r}") from None

    def get(self, key: str, kind, default=None, required: bool = False, override=None):
        """The key's value as kind, or default; a set override wins (the key is still parsed)."""
        item = self._raw(key, required)
        value = default if item is None else self._parse(key, kind, *item)
        return value if override is None else override

    def get_list(self, key: str, kind):
        """The required key's comma-separated entries, each as kind."""
        text, line_no = self._raw(key, required=True)
        parts = [p.strip() for p in text.split(",") if p.strip()]
        if not parts:
            raise ConfigError(f"line {line_no}: {key} list is empty")
        return [self._parse(key, kind, p, line_no) for p in parts]

    def reject_unknown(self):
        for key, (_, line_no) in self.entries.items():
            if key not in self.used:
                raise ConfigError(f"line {line_no}: unknown key {key!r}")


@contextmanager
def _as_config_error():
    """Raise the ValueError of a library config object that refuses its values as ConfigError."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


# ------------------------------------------------------------------- outputs


def _write_outputs(out_dir: str | None, files: dict) -> int:
    """Write {name: text} into out_dir; returns 0, or 3 on I/O failure."""
    if out_dir is None:
        return 0
    try:
        target = Path(out_dir)
        target.mkdir(parents=True, exist_ok=True)
        for name, text in files.items():
            (target / name).write_text(text)
    except OSError as exc:
        print(f"error: cannot write outputs: {exc}", file=sys.stderr)
        return 3
    return 0


def _fmt(value: float) -> str:
    if isinstance(value, int):  # bools as 1/0, never in exponent form
        return str(int(value))
    return f"{value:.10g}"


# --------------------------------------------------------------------- sweep


def cmd_sweep(args) -> int:
    if args.threads is not None:
        print("warning: --threads is ignored; sweeps use one thread per core the process "
              "may run on (taskset limits it)", file=sys.stderr)
    cfg = _Config(args.config)
    m = cfg.get("m", int, required=True)
    n_list = cfg.get_list("n_rx", int)
    snr_db = cfg.get_list("snr_db", float)
    trials = cfg.get("trials", int, _DEFAULT_TRIALS, override=args.trials)
    seed = cfg.get("seed", int, override=args.seed)
    if seed is None:
        seed = _DEFAULT_SEED
        print(f"seed = {seed} (default; set 'seed' in the config to silence)", file=sys.stderr)
    policy = cfg.get("codebook_policy", str, "per_block")
    bits = cfg.get("bits", int)
    gap = cfg.get("gap_target", float)
    cfg.reject_unknown()

    start = time.perf_counter()
    # run_experiment refuses an unreachable or over-limit bit budget before any trial
    with _as_config_error():
        rule = BitsRule(bits=bits, target_gap=gap)
        result = run_experiment(
            ExperimentConfig(m=m, n_rx=tuple(n_list), snr_db_grid=tuple(snr_db), bits_rule=rule,
                             trials=trials, seed=seed, codebook_policy=policy))
    elapsed = time.perf_counter() - start
    rows, warnings = result.points, result.warnings

    names = SWEEP_CSV_HEADER.split(",")
    lines = [SWEEP_CSV_HEADER] + [",".join(_fmt(getattr(r, k)) for k in names) for r in rows]
    csv_text = "\n".join(lines) + "\n"

    # no wall-clock or worker count in here: the manifest must be
    # byte-identical for equal (config, seed) whatever the worker count
    config = dataclasses.asdict(result.config)
    config["snr_db"] = config.pop("snr_db_grid")
    manifest = {
        "command": "sweep",
        "version": __version__,
        "config": config,
        "rows": [dataclasses.asdict(r) for r in rows],
        "outputs": {"csv": "sweep.csv"},
        "stream_version": STREAM_VERSION,
        "warnings": warnings,
    }
    manifest_text = json.dumps(manifest, indent=2, sort_keys=True) + "\n"

    print(csv_text, end="")
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)
    print(f"# {len(rows)} grid points, {trials} trials each, {elapsed:.1f}s", file=sys.stderr)
    return _write_outputs(args.out, {"sweep.csv": csv_text, "manifest.json": manifest_text})


# ------------------------------------------------------------- scaling-table


SCALING_CSV_HEADER = ("snr_db,n_rx,bits_exact,bits_ceil,bits_round,"
                      "savings_bits_exact,savings_bits_approx,feasible")


def scaling_table_rows(m: int, n_list: list, snr_db: list, gap: float) -> list[dict]:
    """One row per (SNR, N) cell: exact bit budget, integer roundings, savings.

    bits_ceil is the count a simulation would spend (never undershoots the
    target); bits_round is the conventional reporting value.  savings columns
    compare against the N = 1 budget at the same cell: exact is the direct
    difference of budgets, approx the closed-form leading-order expression.
    Infeasible cells (target below the N's asymptotic floor) carry nan bits.
    """
    rows = []
    for p_db in snr_db:
        budgets = {}
        for n in dict.fromkeys([1, *n_list]):
            try:
                budgets[n] = bits_required(ScalingInputs(m=m, n=n, p_db=p_db, target_gap=gap))
            except InfeasibleTargetError:
                budgets[n] = math.nan
        for n in n_list:
            exact, feasible = budgets[n], not math.isnan(budgets[n])
            rows.append({
                "snr_db": p_db,
                "n_rx": n,
                "bits_exact": exact,
                "bits_ceil": max(1, math.ceil(exact)) if feasible else math.nan,
                "bits_round": round(exact) if feasible else math.nan,
                "savings_bits_exact": budgets[1] - exact,  # nan where either is infeasible
                "savings_bits_approx": feedback_savings(m, n, p_db),
                "feasible": feasible,
            })
    return rows


def cmd_scaling_table(args) -> int:
    cfg = _Config(args.config)
    m = cfg.get("m", int, required=True)
    n_list = cfg.get_list("n_rx", int)
    snr_db = cfg.get_list("snr_db", float)
    gap = cfg.get("gap_target", float, required=True)
    cfg.reject_unknown()

    with _as_config_error():  # a cell's ScalingInputs refuses bad values
        rows = scaling_table_rows(m, n_list, snr_db, gap)
    names = SCALING_CSV_HEADER.split(",")
    lines = [SCALING_CSV_HEADER] + [",".join(_fmt(r[k]) for k in names) for r in rows]
    csv_text = "\n".join(lines) + "\n"

    print(f"# feedback bits for target gap {gap:g} bits per user, M = {m}")
    print(f"{'snr_db':>8} {'n_rx':>5} {'bits_exact':>11} {'ceil':>5} {'round':>6} "
          f"{'savings':>9} {'approx':>8} {'feasible':>9}")
    for r in rows:
        print(f"{r['snr_db']:>8g} {r['n_rx']:>5d} {r['bits_exact']:>11.4f} "
              f"{r['bits_ceil']:>5g} {r['bits_round']:>6g} "
              f"{r['savings_bits_exact']:>9.4f} {r['savings_bits_approx']:>8.4f} "
              f"{int(r['feasible']):>9d}")
    return _write_outputs(args.out, {"scaling_table.csv": csv_text})


# ------------------------------------------------------------------ validate


def cmd_validate(args) -> int:
    cfg = _Config(args.config)
    fields = {"m": cfg.get("m", int, 4), "n_rx": cfg.get("n_rx", int, 2),
              "bits": cfg.get("bits", int, 8),
              "samples": cfg.get("samples", int, _DEFAULT_SAMPLES, override=args.samples),
              "seed": cfg.get("seed", int, _DEFAULT_SEED, override=args.seed)}
    cfg.reject_unknown()
    with _as_config_error():
        config = ValidationConfig(**fields)

    start = time.perf_counter()
    # unmapped: a kernel fault (DegenerateChannelError) is a ValueError too
    reports = run_validation_suite(config, wrong_reference=args.wrong_reference)
    elapsed = time.perf_counter() - start
    all_passed = all(r.passed for r in reports)

    payload = {
        "command": "validate",
        "version": __version__,
        "config": {**dataclasses.asdict(config), "wrong_reference": bool(args.wrong_reference)},
        "reports": [dataclasses.asdict(r) for r in reports],
        "passed": all_passed,
        "stream_version": VALIDATION_STREAM_VERSION,
    }
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    print(text, end="")
    workers = suite_workers(config)
    print(f"# validation {'passed' if all_passed else 'FAILED'} in {elapsed:.1f}s "
          f"({workers} worker{'s' * (workers != 1)})", file=sys.stderr)
    code = _write_outputs(args.out, {"validation.json": text})
    if code != 0:
        return code
    return 0 if all_passed else 2


# ---------------------------------------------------------------------- main


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="effchan",
                     description="Limited-feedback downlink sum-rate simulation")
    sub = parser.add_subparsers(dest="command", required=True)

    sweep = sub.add_parser("sweep", help="Monte Carlo sum-rate sweep")
    sweep.add_argument("--config", required=True, help="flat key = value config file")
    sweep.add_argument("--out", help="directory for sweep.csv and manifest.json")
    sweep.add_argument("--seed", type=int, help="override config seed")
    # accepted for old scripts and ignored: sweeps use the worker rule
    sweep.add_argument("--threads", type=int, help=argparse.SUPPRESS)
    sweep.add_argument("--trials", type=int, help="override config trial count")
    sweep.set_defaults(func=cmd_sweep)

    table = sub.add_parser("scaling-table", help="closed-form feedback-bit budgets")
    table.add_argument("--config", required=True, help="flat key = value config file")
    table.add_argument("--out", help="directory for scaling_table.csv")
    table.set_defaults(func=cmd_scaling_table)

    val = sub.add_parser("validate", help="distributional checks of the quantizer")
    val.add_argument("--config", required=True, help="flat key = value config file")
    val.add_argument("--out", help="directory for validation.json")
    val.add_argument("--seed", type=int, help="override config seed")
    val.add_argument("--samples", type=int, help="override config sample count")
    val.add_argument("--wrong-reference", action="store_true",
                     help="swap in off-by-one reference laws (suite must fail)")
    val.set_defaults(func=cmd_validate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
