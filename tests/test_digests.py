"""Pinned sha256 digests of the sweep and validation output files.

Equal (config, seed) must give byte-identical outputs, and a change that
alters a random stream must say so by bumping the stream version
(``experiment.STREAM_VERSION`` or ``validate.STREAM_VERSION``).  These digests
catch a silent drift: the three sweep shapes are the benchmark's
``sweep_fixed_b2`` and ``sweep_block_b10`` and README's ``sweep.cfg``, with
their trials cut, and the validation runs are a small ``validate`` config,
plain and under ``--wrong-reference`` (whose failing suite exits 2).

Floating-point results depend on numpy's own routines, so the digests hold
for the numpy version they were recorded with; on any other the test skips.

``python tests/test_digests.py`` prints the current tree's digests in the
layout of ``DIGESTS``, so a deliberate stream change is re-pinned by pasting
reviewed output.
"""

import contextlib
import hashlib
import io
import tempfile
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest

from effchan.cli import main

RECORDED_NUMPY = "2.4.6"


class Run(NamedTuple):
    command: str
    config: str  # config file text
    argv: tuple = ()  # options after --config and --out
    exit_code: int = 0


VALIDATE_CONFIG = "m = 4\nn_rx = 2\nbits = 6\nsamples = 4000\nseed = 5\n"
RUNS = {
    "sweep_fixed_b2": Run("sweep", "m = 4\nn_rx = 1, 2, 3\nbits = 2\ncodebook_policy = fixed\n"
                                   "snr_db = 10\ntrials = 200\nseed = 1\n"),
    "sweep_block_b10": Run("sweep", "m = 8\nn_rx = 2\nbits = 10\ncodebook_policy = per_block\n"
                                    "snr_db = 10\ntrials = 70\nseed = 1\n"),
    "readme_sweep": Run("sweep", "m = 4\nn_rx = 1, 2\nsnr_db = 0, 5, 10\nbits = 4\n"
                                 "trials = 500\nseed = 31\ncodebook_policy = per_block\n"),
    "validate": Run("validate", VALIDATE_CONFIG),
    "validate_wrong_reference": Run("validate", VALIDATE_CONFIG, ("--wrong-reference",), 2),
}
OUTPUTS = {"sweep": ("sweep.csv", "manifest.json"), "validate": ("validation.json",)}

# Re-pinned at sweep stream contract v6, whose per_block scorer draws each pick
# from its law instead of drawing and scanning codebooks: both per_block runs'
# outputs changed; sweep_fixed_b2's CSV is v5's byte for byte, and its manifest
# changed only in its stream_version.
DIGESTS = {
    "sweep_fixed_b2": {
        "sweep.csv": "36b3ea48a1666ec388ed598856fafe754c7d47bed69dafd1ab7412ccd962be7c",
        "manifest.json": "b9ecbadc27ab06007abbec512ce2a3b277b65c4494d1e2d806542a7bcd8e91f6",
    },
    "sweep_block_b10": {
        "sweep.csv": "ab31020a05e5fc31988ed9e6f926794a3bfc7282102ba077a789028274284bf8",
        "manifest.json": "2f94a0d44b74daa70e0dd06ebe9efd46a9baf586f53c4ffea1be98a8bb4b17d8",
    },
    "readme_sweep": {
        "sweep.csv": "c1731e8e6d1efc48473fc012f947fce2f423e73ae6cb29e96a1173a69dea9379",
        "manifest.json": "3871f931a0af322ebcef0b704164c1265d217cdeb5fdd65bb69695a1cd7810f5",
    },
    "validate": {
        "validation.json": "c14bd6debf5ebafee105a878a2eb52dab105cef9d05fdd3ef7364b14a6ee5db1",
    },
    "validate_wrong_reference": {
        "validation.json": "9a997a9a803bba53e1aa51f57f41a5013259b8bbeb3913f62fd994cefa208cab",
    },
}


def output_digests(tmp_path, name):
    """{file: sha256 hex} of one run's output files."""
    run = RUNS[name]
    config, out = tmp_path / f"{name}.cfg", tmp_path / name
    config.write_text(run.config)
    argv = [run.command, "--config", str(config), "--out", str(out), *run.argv]
    assert main(argv) == run.exit_code
    return {file: hashlib.sha256((out / file).read_bytes()).hexdigest()
            for file in OUTPUTS[run.command]}


@pytest.mark.skipif(np.__version__ != RECORDED_NUMPY,
                    reason=f"digests recorded with numpy {RECORDED_NUMPY}, "
                           f"this is numpy {np.__version__}")
@pytest.mark.parametrize("name", sorted(RUNS))
def test_outputs_match_pinned_digests(tmp_path, capsys, name):
    digests = output_digests(tmp_path, name)
    capsys.readouterr()
    assert digests == DIGESTS[name], (
        f"{name}'s output bytes changed: if a random stream changed on purpose, "
        "bump the stream version and re-pin")


if __name__ == "__main__":
    with (tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()),
          contextlib.redirect_stderr(io.StringIO())):
        current = {name: output_digests(Path(tmp), name) for name in DIGESTS}
    print(f"# numpy {np.__version__}\nDIGESTS = {{")
    for name, digests in current.items():
        print(f'    "{name}": {{')
        for file, digest in digests.items():
            print(f'        "{file}": "{digest}",')
        print("    },")
    print("}")
