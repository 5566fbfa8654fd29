import csv
import json
import logging
import os
import re
import subprocess
import sys
import time

import pytest

import relaylab
from relaylab.cli import main


def _write(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def test_success_writes_csv_and_summary(tmp_path, capsys):
    cfg = _write(tmp_path / "cfg.json", {
        "experiment": "ratio-sweep",
        "grid": [0.5, 2.0],
        "sim": {"slots": 20_000},
        "output_path": str(tmp_path / "run.csv"),
    })
    assert main(["ratio-sweep", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert "wrote 10 rows" in out
    assert (tmp_path / "run.csv").exists()
    assert (tmp_path / "run.summary.json").exists()


def test_rerun_byte_identical(tmp_path):
    cfg = _write(tmp_path / "cfg.json", {
        "experiment": "ratio-sweep",
        "grid": [1.0, 4.0],
        "sim": {"slots": 20_000},
    })
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert main(["ratio-sweep", "--config", cfg, "--output", str(a)]) == 0
    assert main(["ratio-sweep", "--config", cfg, "--output", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_overrides_land_in_sidecar(tmp_path):
    cfg = _write(tmp_path / "cfg.json", {
        "experiment": "validate",
        "grid": [[1, 1, 1.0]],
    })
    out = tmp_path / "v.csv"
    rc = main([
        "validate", "--config", cfg, "--output", str(out),
        "--seed", "7", "--slots", "5000", "--analytic-only",
    ])
    assert rc == 0
    payload = json.loads((tmp_path / "v.summary.json").read_text())
    assert payload["spec"]["sim"]["seed"] == 7
    assert payload["spec"]["sim"]["slots"] == 5000
    assert payload["spec"]["methods"] == ["analytic"]
    assert payload["spec"]["output_path"] == str(out)


def test_defaults_without_config(tmp_path, capsys):
    out = tmp_path / "g.csv"
    rc = main([
        "grouping-sweep", "--output", str(out),
        "--slots", "2000", "--analytic-only",
    ])
    assert rc == 0
    # default channel is L=4, so splits 1..3
    assert "wrote 3 rows" in capsys.readouterr().out


def test_seed_changes_monte_carlo_rows(tmp_path):
    cfg = _write(tmp_path / "cfg.json", {
        "experiment": "ratio-sweep",
        "grid": [1.0],
        "sim": {"slots": 20_000},
        "methods": ["monte-carlo"],
    })
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert main(["ratio-sweep", "--config", cfg, "--output", str(a), "--seed", "1"]) == 0
    assert main(["ratio-sweep", "--config", cfg, "--output", str(b), "--seed", "2"]) == 0
    assert a.read_bytes() != b.read_bytes()


def test_config_errors_exit_1(tmp_path, capsys):
    missing = str(tmp_path / "nope.json")
    assert main(["ratio-sweep", "--config", missing]) == 1
    assert "config error" in capsys.readouterr().err

    bad = tmp_path / "bad.json"
    bad.write_text("{oops")
    assert main(["ratio-sweep", "--config", str(bad)]) == 1

    unknown = _write(tmp_path / "unknown.json", {
        "experiment": "ratio-sweep", "grd": [1.0],
    })
    assert main(["ratio-sweep", "--config", unknown]) == 1

    mismatched = _write(tmp_path / "mismatch.json", {"experiment": "snr-sweep"})
    assert main(["ratio-sweep", "--config", mismatched]) == 1
    assert "snr-sweep" in capsys.readouterr().err

    # json reads an integer of over 4300 digits as a plain ValueError
    digits = tmp_path / "digits.json"
    digits.write_text('{"grid": [1' + "0" * 5000 + "]}")
    assert main(["ratio-sweep", "--config", str(digits)]) == 1
    assert "not valid JSON" in capsys.readouterr().err


def test_unwritable_output_exits_1(tmp_path):
    cfg = _write(tmp_path / "cfg.json", {
        "experiment": "validate",
        "grid": [[1, 1, 1.0]],
        "sim": {"slots": 1000},
    })
    target = str(tmp_path / "no" / "such" / "dir" / "out.csv")
    assert main(["validate", "--config", cfg, "--output", target]) == 1


def test_numerical_failure_exits_2(tmp_path, capsys):
    # 3080 dB is 1e308 linear: a valid power whose Monte Carlo rates overflow
    cfg = _write(tmp_path / "cfg.json", {
        "experiment": "snr-sweep",
        "grid": [3080],
        "sim": {"slots": 1000},
    })
    rc = main(["snr-sweep", "--config", cfg, "--output", str(tmp_path / "x.csv"), "--mc-only"])
    assert rc == 2
    assert "numerical failure" in capsys.readouterr().err


@pytest.mark.parametrize("experiment, payload, flags, names", [
    # 1e308 linear: at the first probe, ratio 1e-2, 2*pr*g*sigma_h2
    # overflows, so the closed form's x is 0
    ("snr-sweep", {"grid": [3080]}, [], "c22 argument"),
    # 1e-323 linear: the budget split rounds ps to 0
    ("snr-sweep", {"grid": [-3230]}, [], "power split underflows"),
    # the same underflow in a fixed split is found at run time too
    ("ratio-sweep", {"snr_db": -3230}, [], "power split underflows"),
    # a fixed split whose Monte Carlo rates overflow is not skipped
    ("ratio-sweep", {"snr_db": 3080}, ["--mc-only"], "objective returned"),
    # 2*ps*sigma_g2 itself underflows to 0: named, not a bare division error
    ("validate", {"grid": [[1, 1, 5e-324]], "channel": {"sigma_g2": 1e-10}}, [], "c11 argument"),
    # a power over a noise near the double range's top rounds to 0 as a
    # closed form's link power, on adb's relay side and on either term side
    ("ratio-sweep", {"snr_db": -3000, "channel": {"noise_d": 1e300}, "grid": [1.0]},
     ["--analytic-only"], "link powers"),
    ("validate", {"grid": [[1, 1, 1e-300]], "channel": {"noise_d": 1e300}}, [], "link powers"),
    ("validate", {"grid": [[1, 1, 1e-300]], "channel": {"noise_r": 1e300}}, [], "link powers"),
], ids=[
    "snr-grid-3080", "snr-grid-minus-3230", "ratio-snr_db-minus-3230",
    "ratio-snr_db-3080-mc", "validate-c11-scale-underflow",
    "ratio-adb-relay-power-underflow", "validate-noise_d-underflow", "validate-noise_r-underflow",
])
def test_extreme_snr_exits_2_with_one_line(
    tmp_path, capsys, recwarn, experiment, payload, flags, names
):
    cfg = _write(tmp_path / "cfg.json", {"experiment": experiment, "sim": {"slots": 1000}, **payload})
    out = tmp_path / "x.csv"
    assert main([experiment, "--config", cfg, "--output", str(out), *flags]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("relaylab: numerical failure:")
    assert names in lines[0]
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]
    assert not out.exists()


def test_argparse_rejections():
    with pytest.raises(SystemExit) as exc:
        main(["bogus-experiment"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["ratio-sweep", "--analytic-only", "--mc-only"])
    assert exc.value.code == 2


@pytest.mark.parametrize("payload", [
    {"channel": 5},
    {"channel": [1, 2]},
    {"sim": "x"},
    {"grid": 3},
    {"methods": 7},
    {"channel": {"L": 1e400}},
    {"sim": {"slots": 2000.5}},
    {"sim": {"slots": True}},
    {"sim": {"seed": 1.5}},
    {"sim": {"workers": 2.5}},
    {"channel": {"sigma_g2": 1e400}},
    {"channel": {"sigma_h2": float("nan")}},
    {"channel": {"noise_d": 1e400}},
    {"channel": {"M": True}},
    {"channel": {"noise_r": True}},
    {"snr_db": True},
    {"grid": [0.0, True]},
    {"experiment": "ratio-sweep", "grid": [1.0, True]},
    {"grid": [-4000]},
    {"grid": [4000]},
    {"snr_db": -4000},
    {"snr_db": 4000},
    # estimated memory beyond the machine's, rejected before any work
    {"sim": {"slots": 10**12}, "methods": "monte-carlo"},
    {"experiment": "grouping-sweep", "channel": {"L": 10**30, "M": 1}},
    {"experiment": "grouping-sweep", "channel": {"L": 10**30, "M": 1}, "methods": "analytic"},
    # integers that no double holds, though each is below inf
    {"experiment": "ratio-sweep", "grid": [10**400]},
    {"experiment": "validate", "grid": [[1, 1, 10**400]]},
    {"experiment": "antenna-sweep", "grid": [10**400]},
    {"sim": {"slots": 10**400}},
    {"channel": {"sigma_g2": 10**400}},
    {"channel": {"sigma_h2": 10**400}},
    {"channel": {"noise_r": 10**400}},
    {"channel": {"noise_d": 10**400}},
    # closed forms past the work caps: a group of 10^11 - 2 relays, and
    # 10^5 antennas a relay
    {"experiment": "ratio-sweep", "channel": {"L": 10**11, "M": 2, "N_R": 2},
     "grid": [1.0], "methods": "analytic"},
    {"experiment": "antenna-sweep", "grid": [100000], "methods": "analytic"},
    # a need in MiB of over 4300 digits, which str() refuses
    {"experiment": "antenna-sweep", "channel": {"L": 10**4000, "M": 1}, "grid": [10**4000]},
], ids=[
    "channel-number", "channel-list", "sim-string", "grid-number",
    "methods-number", "L-overflow", "slots-float", "slots-bool",
    "seed-float", "workers-float", "sigma_g2-inf", "sigma_h2-nan",
    "noise_d-inf", "M-bool", "noise_r-bool", "snr_db-bool", "snr-grid-bool",
    "ratio-grid-bool", "snr-grid-underflow", "snr-grid-overflow",
    "snr_db-underflow", "snr_db-overflow", "slots-memory",
    "grouping-grid-memory", "grouping-grid-memory-analytic",
    "ratio-grid-int-overflow", "validate-power-int-overflow",
    "antenna-grid-int-overflow", "slots-int-overflow", "sigma_g2-int-overflow",
    "sigma_h2-int-overflow", "noise_r-int-overflow", "noise_d-int-overflow",
    "closed-form-group-work", "closed-form-shape-work", "memory-need-digits",
])
def test_malformed_config_exits_1_with_one_line(tmp_path, capsys, payload):
    payload = {"experiment": "snr-sweep", **payload}
    cfg = _write(tmp_path / "cfg.json", payload)
    out = str(tmp_path / "x.csv")
    assert main([payload["experiment"], "--config", cfg, "--output", out]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("relaylab: config error:")
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("channel", [
    # one c11 call at a 50 x 50 group took 2.9 s
    {"L": 100, "M": 50, "N_R": 50},
    # 10^5 c22 terms took 0.12 s a call, and a searched row makes 41
    {"L": 200_000, "M": 100_000, "N_R": 1},
], ids=["c11-50x50", "c22-1e5-terms"])
def test_slow_closed_forms_exit_1_naming_mc_only(tmp_path, capsys, channel):
    cfg = _write(tmp_path / "cfg.json", {
        "experiment": "ratio-sweep", "channel": channel, "grid": [1.0],
    })
    out = tmp_path / "x.csv"
    start = time.perf_counter()
    assert main(["ratio-sweep", "--config", cfg, "--output", str(out), "--analytic-only"]) == 1
    assert time.perf_counter() - start < 1.0
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("relaylab: config error:")
    assert "--mc-only" in lines[0]
    assert not out.exists()


def test_large_closed_form_argument_exits_0(tmp_path):
    # -150 dB puts e^x E_n(x) at x ~ 1e17, where the continued fraction
    # used to stall
    cfg = _write(tmp_path / "cfg.json", {"experiment": "snr-sweep", "grid": [-150]})
    out = tmp_path / "x.csv"
    assert main(["snr-sweep", "--config", cfg, "--output", str(out), "--analytic-only"]) == 0
    assert out.read_text().count("\n") == 2


def test_split_past_the_coarse_grid_exits_0(tmp_path):
    # 12 single-antenna relays: both methods' best ps/pr lies past the
    # coarse grid's top, 1e2 (283 by the closed form, 231 by Monte Carlo),
    # and the search follows it there, not only past 1e2's rounding
    cfg = _write(tmp_path / "cfg.json", {
        "experiment": "relay-sweep", "total_antennas": 12, "grid": [12],
        "sim": {"slots": 200_000},
    })
    out = tmp_path / "x.csv"
    assert main(["relay-sweep", "--config", cfg, "--output", str(out)]) == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["method"] for r in rows] == ["analytic", "monte-carlo"]
    assert all(float(r["ps"]) / float(r["pr"]) > 200.0 for r in rows)


def test_verbose_logs_each_row_and_keeps_csv_bytes(tmp_path, caplog):
    cfg = _write(tmp_path / "cfg.json", {
        "experiment": "antenna-sweep",
        "grid": [1, 2],
        "sim": {"slots": 5_000},
        "tolerance": 1e-2,
    })
    quiet, loud = tmp_path / "quiet.csv", tmp_path / "loud.csv"
    with caplog.at_level(logging.DEBUG, logger="relaylab"):
        assert main(["antenna-sweep", "--config", cfg, "--output", str(quiet)]) == 0
        assert not [r for r in caplog.records if r.levelno == logging.INFO]
        assert main(["antenna-sweep", "--config", cfg, "--output", str(loud), "-v"]) == 0
    lines = [r.getMessage() for r in caplog.records if r.levelno == logging.INFO]
    # one line per row: 4 protocols x 2 antenna counts, plus adb's analytic rows
    assert len(lines) == 10
    assert lines[0].startswith("adb L=4 M=2 N_R=1 snr_db=10 analytic ")
    # every row's split is optimised, and its line ends with the search's
    # value probes
    assert all(re.search(r" after [1-9][0-9]* probes$", line) for line in lines)
    assert sorted(lines) == sorted(set(lines))
    assert loud.read_bytes() == quiet.read_bytes()


def test_sidecar_peak_rss_is_the_sweeps_own(tmp_path):
    # Linux carries the spawning process's peak RSS over fork and exec into
    # ru_maxrss: a small sweep run from a process that first touches 200
    # MiB must still report its own peak, far below that
    if not os.path.exists("/proc/self/status"):
        pytest.skip("needs Linux's /proc/self/status")
    cfg = _write(tmp_path / "cfg.json", {
        "experiment": "ratio-sweep",
        "grid": [1.0],
        "sim": {"slots": 5_000},
        "methods": ["monte-carlo"],
        "output_path": str(tmp_path / "run.csv"),
    })
    sweep = "import sys; from relaylab.cli import main; sys.exit(main(sys.argv[1:]))"
    code = (
        "import re, subprocess, sys\n"
        "ballast = bytearray(b'\\x01') * (200 << 20)\n"
        f"subprocess.run([sys.executable, '-c', {sweep!r}, 'ratio-sweep', '--config', sys.argv[1]],"
        " check=True)\n"
        "with open('/proc/self/status') as fh:\n"
        "    print(int(re.search(r'VmHWM:\\s*(\\d+) kB', fh.read())[1]) / 1024)\n"
    )
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(relaylab.__file__))}
    out = subprocess.run(
        [sys.executable, "-c", code, cfg], env=env, capture_output=True, text=True,
        check=True, timeout=120,
    ).stdout
    spawner = float(out.split()[-1])
    peak = json.loads((tmp_path / "run.summary.json").read_text())["diagnostics"]["peak_rss_mb"]
    assert spawner >= 200 and 0 < peak < 100, (spawner, peak)
