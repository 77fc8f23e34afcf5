"""Pinned sha256 digests of the sweep and validation output files.

Equal (config, seed) must give byte-identical outputs, and a change that
alters a random stream must say so by bumping the stream version
(``experiment.STREAM_VERSION`` or ``validate.STREAM_VERSION``).  These digests
catch a silent drift: the three sweep shapes are the benchmark's
``sweep_fixed_b2`` and ``sweep_block_b10`` and README's ``sweep.cfg``, with
their trials cut, and the validation run is a small ``validate`` config.

Floating-point results depend on numpy's own routines, so the digests hold
for the numpy version they were recorded with; on any other the test skips.
"""

import hashlib

import numpy as np
import pytest

from effchan.cli import main

RECORDED_NUMPY = "2.4.6"

# name -> (command, config text)
RUNS = {
    "sweep_fixed_b2": ("sweep", "m = 4\nn_rx = 1, 2, 3\nbits = 2\ncodebook_policy = fixed\n"
                                "snr_db = 10\ntrials = 200\nseed = 1\n"),
    "sweep_block_b10": ("sweep", "m = 8\nn_rx = 2\nbits = 10\ncodebook_policy = per_block\n"
                                 "snr_db = 10\ntrials = 70\nseed = 1\n"),
    "readme_sweep": ("sweep", "m = 4\nn_rx = 1, 2\nsnr_db = 0, 5, 10\nbits = 4\ntrials = 500\n"
                              "seed = 31\ncodebook_policy = per_block\n"),
    "validate": ("validate", "m = 4\nn_rx = 2\nbits = 6\nsamples = 4000\nseed = 5\n"),
}
OUTPUTS = {"sweep": ("sweep.csv", "manifest.json"), "validate": ("validation.json",)}

DIGESTS = {
    "sweep_fixed_b2": {
        "sweep.csv": "fa35430adee37004aef90d57c14e7a723c3cb4a378e091f85f44cb8c6a07d273",
        "manifest.json": "76b2c858e65b622bc9a79df6521a269165bcc4b4f2334a08897e4618d904261c",
    },
    "sweep_block_b10": {
        "sweep.csv": "d973d58fdcd6957f53ee5385ed637e289d187836c234f8decdb2ba295379cef1",
        "manifest.json": "0ca05e03585768e2cd79558d6f85b187d77aae32e3007063eb935bfc60c8aa51",
    },
    "readme_sweep": {
        "sweep.csv": "632572a840cf446c625e90520ee47d458b25c5b61b472fadcf2da66e1830411d",
        "manifest.json": "3cb7d2f1d55aeec587982d190a70720bdd90236a10c17df10463f120f2ca3831",
    },
    "validate": {
        "validation.json": "36042904b7527c10b09c180f239229ca7ce36ff4475fe6d12bbf32ca39892322",
    },
}


def output_digests(tmp_path, name):
    """{file: sha256 hex} of one run's output files."""
    command, text = RUNS[name]
    config, out = tmp_path / f"{name}.cfg", tmp_path / name
    config.write_text(text)
    assert main([command, "--config", str(config), "--out", str(out)]) == 0
    return {file: hashlib.sha256((out / file).read_bytes()).hexdigest()
            for file in OUTPUTS[command]}


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
