import json
import math

import pytest

import effchan
import effchan.experiment as experiment
from effchan.cli import (
    SCALING_CSV_HEADER,
    SWEEP_CSV_HEADER,
    ConfigError,
    _fmt,
    main,
    parse_config,
    scaling_table_rows,
)
from effchan.quantize import MAX_CODEBOOK_BITS


def write_config(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


SWEEP_CFG = """\
# tiny smoke sweep
m = 2
n_rx = 1
snr_db = 0, 5
bits = 2
trials = 8
seed = 7
"""


# ------------------------------------------------------------- config parsing


def test_parse_config_grammar():
    entries = parse_config("a = 1\n# note\n\n b = x=y # trailing\nlist = 1, 2,3\n")
    assert entries["a"] == ("1", 1)
    assert entries["b"] == ("x=y", 4)
    assert entries["list"] == ("1, 2,3", 5)


def test_parse_config_rejects_bad_lines():
    with pytest.raises(ConfigError):
        parse_config("just words\n")
    with pytest.raises(ConfigError):
        parse_config("a = 1\na = 2\n")
    with pytest.raises(ConfigError):
        parse_config(" = 3\n")


def test_fmt():
    assert _fmt(float("nan")) == "nan"
    assert _fmt(30.0) == "30"
    assert _fmt(0.12345678901234) == "0.123456789"
    # ints print whole (as str does), bools as 1/0
    assert [_fmt(26), _fmt(33333333333), _fmt(True), _fmt(False)] == [
        "26", "33333333333", "1", "0"]


# --------------------------------------------------------------------- sweep


def test_sweep_end_to_end(tmp_path, capsys):
    cfg = write_config(tmp_path, SWEEP_CFG)
    out = tmp_path / "out"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    lines = stdout.strip().splitlines()
    assert lines[0] == SWEEP_CSV_HEADER
    assert len(lines) == 3
    first = lines[1].split(",")
    assert first[0] == "0" and first[1] == "1" and first[2] == "2"
    for field in first[3:8]:
        assert math.isfinite(float(field))
    assert (out / "sweep.csv").read_text() == stdout
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "sweep"
    assert manifest["version"] == effchan.__version__
    assert manifest["config"]["m"] == 2
    assert manifest["config"]["seed"] == 7
    assert manifest["config"]["snr_db"] == [0.0, 5.0]
    assert manifest["config"]["bits_rule"] == {"kind": "fixed", "bits": 2,
                                               "target_gap": None}
    assert len(manifest["rows"]) == 2
    assert manifest["rows"][0]["rate_zf_mean"] > 0
    assert "outputs" in manifest and "warnings" in manifest
    assert manifest["stream_version"] == 6


def test_sweep_reports_default_seed(tmp_path, capsys):
    cfg = write_config(tmp_path, "m = 2\nn_rx = 1\nsnr_db = 0\nbits = 1\ntrials = 2\n")
    assert main(["sweep", "--config", cfg]) == 0
    err = capsys.readouterr().err
    assert "seed = 12345 (default" in err


def test_sweep_flag_overrides(tmp_path, capsys):
    cfg = write_config(tmp_path, SWEEP_CFG)
    out = tmp_path / "out"
    code = main(["sweep", "--config", cfg, "--out", str(out),
                 "--seed", "11", "--trials", "4"])
    assert code == 0
    capsys.readouterr()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["seed"] == 11
    assert manifest["config"]["trials"] == 4


def test_sweep_threads_flag_is_accepted_and_ignored(tmp_path, capsys):
    warning = ("warning: --threads is ignored; sweeps use one thread per core the process "
               "may run on (taskset limits it)")
    cfg = write_config(tmp_path, SWEEP_CFG)
    written = []
    for flag in ([], ["--threads", "1"], ["--threads", "3"]):
        out = tmp_path / f"out{len(written)}"
        assert main(["sweep", "--config", cfg, "--out", str(out), *flag]) == 0
        assert (warning in capsys.readouterr().err.splitlines()) == bool(flag)
        written.append([(out / name).read_bytes() for name in ("sweep.csv", "manifest.json")])
    assert written[0] == written[1] == written[2]
    assert main(["sweep", "--config", cfg, "--threads", "two"]) == 1  # still an integer
    assert "--threads" in capsys.readouterr().err


@pytest.mark.parametrize("cfg_text,fragment", [
    ("n_rx = 1\nsnr_db = 0\nbits = 2\n", "missing required key 'm'"),
    ("m = 2\nn_rx = 1\nsnr_db = 0\nbits = 2\ngap_target = 1\n", "exactly one"),
    ("m = 2\nn_rx = 1\nsnr_db = 0\n", "exactly one"),
    ("m = 2\nn_rx = 1\nsnr_db = 0\nbits = 2\nk = 3\n", "unknown key"),
    ("m = 2\nn_rx = 1\nsnr_db = 0\nbits = 2\nfoo = 1\n", "unknown key 'foo'"),
    ("m = 2\nn_rx = 1\nsnr_db = 0\nbits = 2\ncodebook_policy = daily\n",
     "codebook_policy"),
    ("m = 2\nn_rx = 3\nsnr_db = 0\nbits = 2\n", "n_rx must hold integers N, 1 <= N <= M = 2"),
    ("m = 2\nn_rx = 1\nsnr_db = 0\nbits = 0\n", "fixed bits must be"),
    ("m = 2\nn_rx = 1\nsnr_db = 0\nbits = two\n", "bits must be int"),
    ("m = 4\nn_rx = 3\nsnr_db = 10\ngap_target = 1.0\n", "not reachable"),
    ("m = 6\nn_rx = 1\nsnr_db = 30\ngap_target = 1.0\n", "codebook limit"),
    ("m = 2\nn_rx = 1\nsnr_db = nan, inf\nbits = 2\n", "must be finite"),
    # 10^(4000/10) overflows a float
    ("m = 4\nn_rx = 2\nsnr_db = 4000\nbits = 2\ntrials = 10\n", "must be finite"),
    ("m = 4\nn_rx = 2\nsnr_db = 10\ngap_target = nan\n", "positive finite target gap"),
    ("m = 4\nn_rx = 2\nsnr_db = 10\ngap_target = inf\n", "positive finite target gap"),
    # 10^(-4000/10) underflows to zero power
    ("m = 4\nn_rx = 2\nsnr_db = -4000\nbits = 2\ntrials = 10\n", "must be finite"),
    # a repeated N or SNR would only repeat its rows
    ("m = 3\nn_rx = 2, 2\nsnr_db = 10\nbits = 2\n",
     "n_rx must hold integers N, 1 <= N <= M = 3, each once"),
    ("m = 3\nn_rx = 2\nsnr_db = 0, 5, 0\nbits = 2\n",
     "SNR grid entries must be finite real numbers, each once"),
])
def test_sweep_config_errors(tmp_path, capsys, cfg_text, fragment):
    cfg = write_config(tmp_path, cfg_text)
    assert main(["sweep", "--config", cfg]) == 1
    assert fragment in capsys.readouterr().err


@pytest.mark.parametrize("cfg_text,fragment", [
    ("m = 4\nn_rx = 1, 2, 3\nsnr_db = 0, 10\ngap_target = 1.0\ntrials = 3000\n",
     "target gap 1.0 is not reachable for M=4, N=3"),
    ("m = 4\nn_rx = 1\nsnr_db = 0, 10, 60\ngap_target = 1.0\ntrials = 3000\n",
     "codebook limit"),
])
def test_sweep_refuses_unreachable_cell_before_any_trial(monkeypatch, tmp_path, capsys,
                                                         cfg_text, fragment):
    # the bad cell is the last one: every earlier (N, SNR) cell is feasible
    calls = []
    monkeypatch.setattr(experiment, "_run_chunk", lambda *args, **kwargs: calls.append(args))
    cfg = write_config(tmp_path, cfg_text)
    assert main(["sweep", "--config", cfg]) == 1
    assert fragment in capsys.readouterr().err
    assert calls == []


def test_sweep_missing_config_file(tmp_path, capsys):
    assert main(["sweep", "--config", str(tmp_path / "absent.cfg")]) == 1
    assert "cannot read config" in capsys.readouterr().err


# ------------------------------------------------------------- scaling-table


def test_scaling_table_end_to_end(tmp_path, capsys):
    cfg = write_config(tmp_path, "m = 10\nn_rx = 1, 2, 3\nsnr_db = 10\ngap_target = 1.0\n")
    out = tmp_path / "out"
    assert main(["scaling-table", "--config", cfg, "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "feedback bits for target gap 1" in stdout
    csv_lines = (out / "scaling_table.csv").read_text().strip().splitlines()
    assert csv_lines[0] == SCALING_CSV_HEADER
    assert len(csv_lines) == 4
    n1 = csv_lines[1].split(",")
    assert n1[2] == "30" and n1[3] == "30" and n1[4] == "30" and n1[7] == "1"
    assert float(n1[5]) == 0.0  # savings relative to itself


def test_scaling_table_marks_infeasible_rows(tmp_path, capsys):
    cfg = write_config(tmp_path, "m = 4\nn_rx = 2, 3\nsnr_db = 10\ngap_target = 1.0\n")
    out = tmp_path / "out"
    assert main(["scaling-table", "--config", cfg, "--out", str(out)]) == 0
    capsys.readouterr()
    rows = (out / "scaling_table.csv").read_text().strip().splitlines()[1:]
    feasible = rows[0].split(",")
    infeasible = rows[1].split(",")
    assert feasible[1] == "2" and feasible[7] == "1"
    assert infeasible[1] == "3" and infeasible[7] == "0"
    assert infeasible[2] == "nan" and infeasible[4] == "nan"
    assert math.isfinite(float(infeasible[6]))  # the approximation still prints


def test_scaling_table_rows_structure():
    rows = scaling_table_rows(10, [1, 2, 3], [10.0], 1.0)
    assert rows[0]["bits_exact"] == pytest.approx(30.0, abs=1e-9)
    budgets = [r["bits_exact"] for r in rows]
    assert budgets[0] > budgets[1] > budgets[2]
    assert all(r["feasible"] for r in rows)
    assert rows[1]["bits_ceil"] == math.ceil(rows[1]["bits_exact"])
    assert rows[1]["bits_round"] == round(rows[1]["bits_exact"])


def test_scaling_table_guards(tmp_path, capsys):
    cfg = write_config(tmp_path, "m = 4\nn_rx = 4\nsnr_db = 10\ngap_target = 1.0\n")
    assert main(["scaling-table", "--config", cfg]) == 1
    assert "need 1 <= N <= M-1" in capsys.readouterr().err
    cfg2 = write_config(tmp_path, "m = 4\nn_rx = 2\nsnr_db = 10\ngap_target = -1\n", "g.cfg")
    assert main(["scaling-table", "--config", cfg2]) == 1
    assert "target gap must be positive" in capsys.readouterr().err
    for gap in ("nan", "inf"):  # refused, not a math.ceil traceback or a silent 0 bits
        cfg_gap = write_config(tmp_path, f"m = 4\nn_rx = 2\nsnr_db = 10\ngap_target = {gap}\n",
                               "g.cfg")
        assert main(["scaling-table", "--config", cfg_gap]) == 1
        assert "error: target gap must be positive and finite" in capsys.readouterr().err
    for snr_db in ("nan, 10", "10, inf", "-inf"):  # refused, not a math.ceil traceback
        cfg3 = write_config(tmp_path, f"m = 4\nn_rx = 2\nsnr_db = {snr_db}\ngap_target = 1.0\n",
                            "s.cfg")
        assert main(["scaling-table", "--config", cfg3]) == 1
        assert "error: SNR must be finite" in capsys.readouterr().err


# ------------------------------------------------------------------ validate


def test_validate_end_to_end(tmp_path, capsys):
    # the suite's thresholds are fixed: at 8,000 samples about one seed in
    # five fails them by chance, at 20,000 almost none
    cfg = write_config(tmp_path, "m = 4\nn_rx = 2\nbits = 6\n")
    out = tmp_path / "out"
    code = main(["validate", "--config", cfg, "--out", str(out),
                 "--samples", "20000", "--seed", "11"])
    assert code == 0
    payload = json.loads((out / "validation.json").read_text())
    assert payload["passed"] is True
    assert payload["command"] == "validate"
    assert payload["config"] == {"m": 4, "n_rx": 2, "bits": 6, "samples": 20000,
                                 "seed": 11, "wrong_reference": False}
    assert len(payload["reports"]) == 4
    assert payload["stream_version"] == 4  # one stream per sample block, codebooks per sample
    stdout = capsys.readouterr().out
    assert json.loads(stdout)["passed"] is True


def test_validate_wrong_reference_fails_with_exit_2(tmp_path, capsys):
    cfg = write_config(tmp_path, "m = 4\nn_rx = 2\nbits = 5\n")
    out = tmp_path / "out"
    code = main(["validate", "--config", cfg, "--out", str(out),
                 "--samples", "2000", "--seed", "3", "--wrong-reference"])
    assert code == 2
    capsys.readouterr()
    payload = json.loads((out / "validation.json").read_text())
    assert payload["passed"] is False
    assert all(not r["passed"] for r in payload["reports"])


def test_validate_guards(tmp_path, capsys):
    cfg = write_config(tmp_path, "m = 2\nn_rx = 2\nbits = 4\n")
    assert main(["validate", "--config", cfg, "--samples", "2000"]) == 1
    assert "need 1 <= N <= M-1" in capsys.readouterr().err
    cfg2 = write_config(tmp_path, "m = 4\nn_rx = 2\nbits = 4\n", "s.cfg")
    assert main(["validate", "--config", cfg2, "--samples", "500"]) == 1
    assert "at least 1000 samples" in capsys.readouterr().err
    # refused before anything is drawn: no traceback, no huge allocation
    for bits in (-1, 0, MAX_CODEBOOK_BITS + 1, 40):
        bad = write_config(tmp_path, f"m = 4\nn_rx = 2\nbits = {bits}\n", "b.cfg")
        assert main(["validate", "--config", bad, "--samples", "2000"]) == 1
        assert f"bits must be an integer in [1, {MAX_CODEBOOK_BITS}]" in capsys.readouterr().err
    assert main(["validate", "--config", cfg2, "--samples", "2000", "--seed", "-1"]) == 1
    assert "seed must be nonnegative" in capsys.readouterr().err


def test_validate_is_deterministic(tmp_path, capsys):
    # 20,000 samples: at 4,000 about half the seeds fail a fixed threshold by chance
    cfg = write_config(tmp_path, "m = 4\nn_rx = 2\nbits = 5\nseed = 21\n")
    written = []
    for name in ("first", "second"):
        out = tmp_path / name
        assert main(["validate", "--config", cfg, "--out", str(out), "--samples", "20000"]) == 0
        written.append((out / "validation.json").read_bytes())
    capsys.readouterr()
    assert written[0] == written[1]


# ------------------------------------------------------------- shared plumbing


def test_output_io_failure_exits_3(tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("file, not a directory\n")
    cfg = write_config(tmp_path, "m = 4\nn_rx = 2\nsnr_db = 10\ngap_target = 1.0\n")
    code = main(["scaling-table", "--config", cfg, "--out", str(blocker / "sub")])
    assert code == 3
    assert "cannot write outputs" in capsys.readouterr().err


def test_usage_errors_exit_1(capsys):
    assert main([]) == 1
    assert main(["no-such-command"]) == 1
    assert main(["sweep"]) == 1  # --config is required
    capsys.readouterr()
