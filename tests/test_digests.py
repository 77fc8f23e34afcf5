"""Pinned sha256 digests of the sweep and validation output files.

Equal (config, seed) must give byte-identical outputs, and a change that
alters a random stream must say so by bumping the stream version
(``experiment.STREAM_VERSION`` or ``validate.STREAM_VERSION``).  These digests
catch a silent drift: three sweep shapes are the benchmark's
``sweep_fixed_b2`` and ``sweep_block_b10`` and README's ``sweep.cfg``, with
their trials cut; two are ``gap_target`` sweeps that spend several bit counts,
under either codebook policy; and the validation runs are a small ``validate``
config, plain and under ``--wrong-reference`` (whose failing suite exits 2).

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
    # B = 1, 3, 6, 9, 12, 19 in one pass, and B = 1, 4, 5, 7, 10 in one pass
    "gap_target_block": Run("sweep", "m = 4\nn_rx = 1, 2, 3\nsnr_db = 0, 10, 20\n"
                                     "gap_target = 1.25\ncodebook_policy = per_block\n"
                                     "trials = 130\nseed = 7\n"),
    "gap_target_fixed": Run("sweep", "m = 4\nn_rx = 1, 2\nsnr_db = 0, 5, 10\ngap_target = 1.0\n"
                                     "codebook_policy = fixed\ntrials = 130\nseed = 7\n"),
    "validate": Run("validate", VALIDATE_CONFIG),
    "validate_wrong_reference": Run("validate", VALIDATE_CONFIG, ("--wrong-reference",), 2),
}
OUTPUTS = {"sweep": ("sweep.csv", "manifest.json"), "validate": ("validation.json",)}

# Re-pinned at sweep stream contract v8, which draws each block's channels and
# the per_block law's g only max(n_rx) columns wide, column outermost, and draws
# the law's w before g: every sweep's channels moved, so all five sweep CSVs and
# manifests (stream_version 8) changed.  The rates agree with v7's within their
# Monte Carlo noise (the 20,000-trial comparison is in CHANGES.md), and neither
# validation digest moved.
DIGESTS = {
    "sweep_fixed_b2": {
        "sweep.csv": "d6bb88f4cbb58ff4efcca316e5b7fdc2aacfbcf74e0a674e0373a1b943d2e86d",
        "manifest.json": "674d2df572cbd074397a1e2547f9308747bf7b11088e6a4a97cef2d3e20a6dc2",
    },
    "sweep_block_b10": {
        "sweep.csv": "cb3cd306c397187d3aeab3207d0f36e525b4eb75e08a0290e821626c4a6061f2",
        "manifest.json": "289fbaf1a2061f5a1123c726e94c2cfae7688b5bd33dbb52ab54af4716517efd",
    },
    "readme_sweep": {
        "sweep.csv": "dd763ba40b770ae0eee5cd0a73dc7400a381d1b6ba5e1dad27955ec463786bcb",
        "manifest.json": "defc5f430dff6bb4bc1c084081929df7a609aa4ebce76cb2b543b11a25eef80d",
    },
    "gap_target_block": {
        "sweep.csv": "050722cf806913ff0beaa3fb152e8159fe9bc124c6033d6f50a9fab6f1433c88",
        "manifest.json": "9882b5a7daa7fe2e4738d1fcaee467528494bf00158bfdc40a3716f97c9a91cf",
    },
    "gap_target_fixed": {
        "sweep.csv": "99babd36d925bb664013315c39a1031474b81a031c33e6941b6ab408239570b5",
        "manifest.json": "612fd2667560064c071aca0e7d233f67f166bd16ef2e42aadb399cefcc64fa7c",
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
