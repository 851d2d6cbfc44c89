import hashlib
import json
import re

import pytest
from click.testing import CliRunner

import badlab.cli
import badlab.experiment
from badlab.cli import (
    OptionError,
    config_from_echo,
    config_hash,
    main,
    parse_config,
)
from badlab.exactnum import UndecidableComparison, format_rat
from badlab.experiment import DivergingSeriesError, RejectionError
from badlab.lattice import BoxTooLargeError
from badlab.series import packing_ratio_scan

GOLDEN_CFG = "configs/golden.cfg"
CUBIC_CFG = "configs/cubic.cfg"

CONTROL_CFG = """\
ambient = 1
A_point = 0
A_dir_0 = 1
B_point = 1/2
psi = powerlaw c=1 alpha=1
phi = powerlaw c=1 alpha=1
R = 1
gamma = 23/100
seed = 1
samples = 10
X = 100
T_min = 2
T_max = 20
cert_height = 40
"""

SMALL_MC_CFG = """\
# small convergent instance on a line through the cubic pair
ambient = 2
A_point = cbrt2, cbrt4
A_dir_0 = 1, cbrt2
B_point = cbrt2, cbrt4
psi = powerlaw c=1 alpha=1/2
phi = powerlog c=1 alpha=1/2 delta=2 T0=2
R = 2
gamma = 1/5
seed = 7
samples = 12
X = 2000
T_min = 2
T_max = 32
cert_height = 64
"""


@pytest.fixture()
def runner():
    return CliRunner()


def _write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_help_and_version(runner):
    assert runner.invoke(main, ["--help"]).exit_code == 0
    out = runner.invoke(main, ["--version"])
    assert out.exit_code == 0 and "badlab" in out.output
    assert runner.invoke(main, ["nosuchcommand"]).exit_code == 2


def test_config_rejects_float_literal(runner, tmp_path):
    cfg = _write(tmp_path, "bad.cfg", CONTROL_CFG.replace("1/2", "0.5"))
    res = runner.invoke(main, ["verify", "--config", cfg, "--T", "2"])
    assert res.exit_code == 2
    assert "config error" in res.output


def test_config_rejects_equal_dims(runner, tmp_path):
    cfg = _write(
        tmp_path, "dims.cfg", CONTROL_CFG.replace("B_point = 1/2", "B_point = 1/2\nB_dir_0 = 1")
    )
    res = runner.invoke(main, ["verify", "--config", cfg, "--T", "2"])
    assert res.exit_code == 2
    assert "dim B < a = dim A" in res.output


def test_config_rejects_inadmissible_rates(runner, tmp_path):
    cfg = _write(
        tmp_path, "rates.cfg",
        CONTROL_CFG.replace("psi = powerlaw c=1 alpha=1", "psi = powerlaw c=1 alpha=2"),
    )
    res = runner.invoke(main, ["verify", "--config", cfg, "--T", "2"])
    assert res.exit_code == 2
    assert "phi(T) <= psi(T)" in res.output


def test_series_far_peak_rates_inadmissible(runner, tmp_path):
    # the interior peak sits at log T = 3000, out of float range
    text = (open("configs/cubic.cfg").read()
            .replace("psi = powerlaw c=1 alpha=1/2",
                     "psi = powerlog c=1 alpha=0 delta=3 T0=2")
            .replace("phi = powerlog c=1 alpha=1/2 delta=2 T0=2",
                     "phi = powerlog c=1 alpha=1/1000 delta=0 T0=2"))
    cfg = _write(tmp_path, "peak.cfg", text)
    res = runner.invoke(main, ["series", "--config", cfg, "--N", "10"])
    assert res.exit_code == 2
    assert "config error: rates inadmissible (hypothesis" in res.output
    assert "interior peak > 1" in res.output
    assert "OverflowError" not in res.output


def test_config_missing_key(runner, tmp_path):
    cfg = _write(tmp_path, "missing.cfg", "ambient = 1\n")
    res = runner.invoke(main, ["verify", "--config", cfg, "--T", "2"])
    assert res.exit_code == 2
    assert "missing config key" in res.output


def test_badness_subspace_golden(runner):
    res = runner.invoke(main, ["badness", "--config", GOLDEN_CFG, "--height", "50"])
    assert res.exit_code == 0
    payload = json.loads(res.output)
    assert payload["kind"] == "certificate"
    assert payload["witness"] == [1, 1]
    assert payload["height"] == 50


def test_badness_zero_hit_exits_one(runner, tmp_path):
    cfg = _write(tmp_path, "control.cfg", CONTROL_CFG)
    res = runner.invoke(main, ["badness", "--config", cfg, "--height", "10"])
    assert res.exit_code == 1
    payload = json.loads(res.output)
    assert payload == {"kind": "zero_hit", "witness": [2, 1], "shell": 2}


def test_badness_vector_scan(runner):
    res = runner.invoke(
        main, ["badness", "--config", GOLDEN_CFG, "--vector", "1/2", "--x-max", "50"]
    )
    assert res.exit_code == 0
    payload = json.loads(res.output)
    assert payload["kind"] == "vector" and payload["zero_q"] == 2


def test_badness_vector_rejects_floats(runner):
    res = runner.invoke(
        main, ["badness", "--config", GOLDEN_CFG, "--vector", "0.5"]
    )
    assert res.exit_code == 2


@pytest.mark.parametrize("args, message", [
    (["--height", "5", "--x-max", "7"],
     "--x-max applies only to a --vector scan"),
    (["--vector", "golden", "--height", "3"],
     "--height applies only to the subspace certificate"),
    (["--vector", "0.5"], "--vector: float literal '0.5' not accepted; "
     "use p/q or a preset name"),
    (["--vector", ","], "--vector: empty coordinate vector"),
    (["--vector", "cbrt2,,cbrt4,"],
     "--vector: empty item in coordinate list 'cbrt2,,cbrt4,'"),
    (["--vector", ", cbrt2"],
     "--vector: empty item in coordinate list ', cbrt2'"),
], ids=["x-max without vector", "height with vector", "float vector",
        "empty vector", "empty inner and last item", "empty first item"])
def test_badness_refuses_options_it_ignores(runner, monkeypatch, args,
                                            message):
    # refused in one line before the config is read or anything scanned
    def no_work(*args, **kwargs):
        raise AssertionError("worked on a refused option combination")

    for name in ("parse_config", "subspace_badness", "vector_badness"):
        monkeypatch.setattr(badlab.cli, name, no_work)
    res = runner.invoke(main, ["badness", "--config", GOLDEN_CFG, *args])
    assert res.exit_code == 2, res.output
    assert res.stderr == f"option error: {message}\n"
    assert res.stdout == ""


def test_badness_x_max_below_psi_domain_is_an_option_error(
        runner, tmp_path, monkeypatch):
    # the config is fine, but psi starts at 5, so --x-max 3 leaves the
    # vector scan no q: refused after the config is read, before the scan
    def no_scan(*args, **kwargs):
        raise AssertionError("scanned an empty q range")

    cfg = _cubic_with(tmp_path, psi="powerlog c=1 alpha=1/2 delta=2 T0=5",
                      phi="powerlog c=1 alpha=1/2 delta=3 T0=5", T_min="3")
    args = ["badness", "--config", cfg, "--vector", "cbrt2,cbrt4", "--x-max"]
    with monkeypatch.context() as m:
        m.setattr(badlab.cli, "vector_badness", no_scan)
        res = runner.invoke(main, [*args, "3"])
    assert res.exit_code == 2, res.output
    assert res.stderr == (
        "option error: --x-max 3 lies below psi's domain start 5\n")
    assert res.stdout == ""
    # from psi's start on, the scan runs
    res = runner.invoke(main, [*args, "5"])
    assert res.exit_code == 0, res.output
    assert json.loads(res.stdout)["q_max"] == 5


def test_badness_config_X_below_psi_domain_is_a_config_error(
        runner, tmp_path, monkeypatch):
    # without --x-max the scan ends at the config's X, here below psi's
    # start: refused in one line naming X, where it came from and the
    # start, before the scan
    def no_scan(*args, **kwargs):
        raise AssertionError("scanned an empty q range")

    monkeypatch.setattr(badlab.cli, "vector_badness", no_scan)
    cfg = _cubic_with(tmp_path, psi="powerlog c=1 alpha=1/2 delta=1 "
                                    "T0=200000")
    res = runner.invoke(main, ["badness", "--config", cfg,
                               "--vector", "cbrt2,cbrt4"])
    assert res.exit_code == 2, res.output
    assert res.stderr == ("config error: the config's X = 100000 lies "
                          "below psi's domain start 200000\n")
    assert res.stdout == ""


def test_series_counts_to_needs_out(runner, monkeypatch):
    # the counts fill series.csv only, so without --out they are refused
    # before the config is read, not silently skipped
    def no_work(*args, **kwargs):
        raise AssertionError("worked on a refused option combination")

    for name in ("parse_config", "partial_sum", "packing_ratio_scan"):
        monkeypatch.setattr(badlab.cli, name, no_work)
    res = runner.invoke(main, ["series", "--config", CUBIC_CFG, "--N", "100",
                               "--counts-to", "10"])
    assert res.exit_code == 2, res.output
    assert res.stderr == ("option error: --counts-to applies only to "
                          "series.csv, written with --out\n")
    assert res.stdout == ""


def test_series_counts_to_above_N_refused_before_the_config(
        runner, tmp_path, monkeypatch):
    # series.csv has rows up to T = N only, so counts past N would fill no
    # row: refused before the config is read
    def no_work(*args, **kwargs):
        raise AssertionError("worked on a refused option combination")

    for name in ("parse_config", "partial_sum", "packing_ratio_scan"):
        monkeypatch.setattr(badlab.cli, name, no_work)
    res = runner.invoke(main, ["series", "--config", CUBIC_CFG, "--N", "5",
                               "--counts-to", "12",
                               "--out", str(tmp_path / "ser")])
    assert res.exit_code == 2, res.output
    assert res.stderr == "option error: --counts-to 12 exceeds --N 5\n"
    assert res.stdout == ""
    assert not (tmp_path / "ser").exists()


def test_enumerate_counts(runner, tmp_path):
    out = tmp_path / "pts"
    res = runner.invoke(
        main,
        ["enumerate", "--config", GOLDEN_CFG, "--T", "5", "--set", "pi",
         "--out", str(out)],
    )
    assert res.exit_code == 0
    assert "pi T=5: 66 points" in res.output
    rows = (out / "points.csv").read_text().splitlines()
    assert rows[0] == "z0,z1"
    assert len(rows) == 67

    res = runner.invoke(
        main, ["enumerate", "--config", GOLDEN_CFG, "--T", "5", "--set", "zeta"]
    )
    assert "zeta T=5: 11 points" in res.output

    res = runner.invoke(
        main, ["enumerate", "--config", GOLDEN_CFG, "--T", "50", "--set", "omega"]
    )
    assert "omega T=50: 1 points" in res.output


def test_enumerate_box_guard_exits_two(runner):
    res = runner.invoke(
        main,
        ["enumerate", "--config", GOLDEN_CFG, "--T", "100000", "--set", "omega"],
    )
    assert res.exit_code == 2
    assert res.stderr.startswith("BoxTooLargeError: ")
    assert "Traceback" not in res.output


@pytest.mark.parametrize(
    "exc", [UndecidableComparison, ArithmeticError, OverflowError]
)
def test_unsettled_arithmetic_exits_two(runner, monkeypatch, exc):
    def boom(*args, **kwargs):
        raise exc("cap reached")

    monkeypatch.setattr(badlab.cli, "verify_omega_trivial", boom)
    res = runner.invoke(main, ["verify", "--config", GOLDEN_CFG, "--T", "1"])
    assert res.exit_code == 2
    assert res.stderr == f"{exc.__name__}: cap reached\n"


@pytest.mark.parametrize("exc, code, prefix", [
    (DivergingSeriesError, 2, "refused"),
    (RejectionError, 1, "sampling failed"),
    (BoxTooLargeError, 2, "BoxTooLargeError"),
    (ZeroDivisionError, 2, "ZeroDivisionError"),
    (OptionError, 2, "option error"),
    (ValueError, 2, "config error"),
    (FileNotFoundError, 2, "config error"),
])
def test_failure_table(runner, monkeypatch, exc, code, prefix):
    def boom(*args, **kwargs):
        raise exc("stop")

    monkeypatch.setattr(badlab.cli, "verify_omega_trivial", boom)
    res = runner.invoke(main, ["verify", "--config", GOLDEN_CFG, "--T", "1"])
    assert res.exit_code == code
    assert res.stderr == f"{prefix}: stop\n"


def test_unlisted_failure_keeps_its_traceback(runner, monkeypatch):
    # an exception outside the table is a bug, not a verdict: it is not
    # turned into an exit code
    def boom(*args, **kwargs):
        raise KeyError("bug")

    monkeypatch.setattr(badlab.cli, "verify_omega_trivial", boom)
    res = runner.invoke(main, ["verify", "--config", GOLDEN_CFG, "--T", "1"])
    assert isinstance(res.exception, KeyError)


def _cubic_with(tmp_path, extra="", **keys):
    """configs/cubic.cfg with the given keys' values replaced and the
    line `extra` appended."""
    text = open(CUBIC_CFG).read()
    for key, value in keys.items():
        text, n = re.subn(rf"(?m)^{key} = .*$", f"{key} = {value}", text)
        assert n == 1, key
    return _write(tmp_path, "domain.cfg", text + extra + "\n")


PSI_FROM_2 = "powerlog c=1 alpha=1/2 delta=1 T0=2"

# one bad-domain run per subcommand: a rate asked for below where it is
# defined is bad input, whichever layer notices it
BAD_DOMAIN = {
    "badness": ({"psi": PSI_FROM_2}, ["--height", "5"],
                "badness scans need the rate defined from 1 on; domain "
                "starts at 2"),
    "enumerate": ({"psi": PSI_FROM_2, "R": "1"},
                  ["--set", "omega", "--T", "1"],
                  "argument 1 below domain start 2"),
    "montecarlo": ({"R": "1", "T_min": "1", "samples": "4", "X": "100",
                    "T_max": "4", "cert_height": "8"}, ["--out", "mc"],
                   "R*T_min = 1 lies below phi's domain start 2"),
    "series": ({"R": "1"}, ["--N", "1"],
               "N=1 lies below the rates' domain start 2"),
    "verify": ({"psi": PSI_FROM_2, "R": "1"}, ["--T", "2"],
               "argument 1 below domain start 2"),
}


def test_bad_domain_cases_cover_every_subcommand():
    assert set(BAD_DOMAIN) == set(main.commands)


@pytest.mark.parametrize("command", sorted(BAD_DOMAIN))
def test_bad_domain_exits_two(runner, tmp_path, monkeypatch, command):
    keys, args, message = BAD_DOMAIN[command]
    cfg = _cubic_with(tmp_path, **keys)
    monkeypatch.chdir(tmp_path)
    res = runner.invoke(main, [command, "--config", cfg, *args])
    assert res.exit_code == 2, res.output
    assert isinstance(res.exception, SystemExit)
    assert res.stderr == f"config error: {message}\n"
    assert "Traceback" not in res.output


def test_montecarlo_T_range_below_phi_refused_before_sampling(
        runner, tmp_path, monkeypatch):
    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled a T range below phi's domain")

    monkeypatch.setattr(badlab.cli, "run_theorem1", no_sampling)
    keys, args, message = BAD_DOMAIN["montecarlo"]
    cfg = _cubic_with(tmp_path, **keys)
    res = runner.invoke(
        main, ["montecarlo", "--config", cfg, "--out", str(tmp_path / "o")])
    assert res.exit_code == 2
    assert res.stderr == f"config error: {message}\n"


def _forbid_certificate(monkeypatch):
    """Make any badness certificate scan fail the test."""
    def no_certificate(*args, **kwargs):
        raise AssertionError("certificate built for a refused config")

    for module in (badlab.cli, badlab.experiment):
        monkeypatch.setattr(module, "subspace_badness", no_certificate)


# configs every subcommand refuses at load, whatever its options (those
# of BAD_DOMAIN): (keys of cubic.cfg to replace, with `extra` a line to
# append, the one stderr line)
REFUSED_AT_LOAD = {
    "B-off-A": ({"B_point": "cbrt2, golden"},
                "config error: B is not contained in A\n"),
    "T_min=0": ({"T_min": "0"}, "config error: bad T range\n"),
    "X=1": ({"X": "1"},
            "config error: X = 1 lies below phi's domain start 2\n"),
    "cert_height=100": ({"cert_height": "100"},
                        "config error: certificate height does not cover "
                        "R*max(T)\n"),
    "unknown-key": ({"extra": "sampels = 5"},
                    "config error: unknown config key 'sampels'\n"),
    "dropped-key": ({"extra": "thresholds = 1/4, 1/16"},
                    "config error: unknown config key 'thresholds'\n"),
    "repeated-key": ({"extra": "seed = 7"},
                     "config error: line 17: repeated key 'seed'\n"),
    "direction-gap": ({"extra": "A_dir_2 = 1, cbrt2"},
                      "config error: unknown config key 'A_dir_2'\n"),
    "empty-item": ({"A_point": "cbrt2,, cbrt4"},
                   "config error: empty item in coordinate list "
                   "'cbrt2,, cbrt4'\n"),
}


@pytest.mark.parametrize("case", sorted(REFUSED_AT_LOAD))
@pytest.mark.parametrize("command", sorted(BAD_DOMAIN))
def test_every_subcommand_refuses_bad_config_at_load(
        runner, tmp_path, monkeypatch, command, case):
    keys, stderr = REFUSED_AT_LOAD[case]
    cfg = _cubic_with(tmp_path, **keys)
    monkeypatch.chdir(tmp_path)
    args = BAD_DOMAIN[command][1]
    res = runner.invoke(main, [command, "--config", cfg, *args])
    assert res.exit_code == 2, res.output
    assert res.stderr == stderr
    assert res.stdout == ""
    assert "Traceback" not in res.output


@pytest.mark.parametrize("keys, message", [
    ({"T_min": "0"}, "bad T range"),
    ({"samples": "-5"}, "bad sample_count or X"),
], ids=["T_min=0", "samples=-5"])
def test_montecarlo_refuses_before_the_certificate(
        runner, tmp_path, monkeypatch, keys, message):
    _forbid_certificate(monkeypatch)
    cfg = _cubic_with(tmp_path, **keys)
    res = runner.invoke(
        main, ["montecarlo", "--config", cfg, "--out", str(tmp_path / "o")])
    assert res.exit_code == 2, res.output
    assert res.stderr == f"config error: {message}\n"


@pytest.mark.parametrize("counts_to, refused", [(3, True), (5, False)])
def test_series_counts_below_the_start_refused_before_summing(
        runner, tmp_path, monkeypatch, counts_to, refused):
    # phi starts at 10 and R = 2, so the series starts at T = 5: counts to
    # 3 are refused before the N terms are summed, counts to 5 are not
    summed = []
    real = badlab.cli.partial_sum

    def recorded(*args, **kwargs):
        summed.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(badlab.cli, "partial_sum", recorded)
    cfg = _cubic_with(tmp_path, phi="powerlog c=1 alpha=1/2 delta=2 T0=10",
                      T_min="5")
    res = runner.invoke(main, ["series", "--config", cfg, "--N", "6",
                               "--counts-to", str(counts_to),
                               "--out", str(tmp_path / "ser")])
    if refused:
        assert res.exit_code == 2, res.output
        assert res.stderr == ("config error: empty T range: --counts-to 3 "
                              "lies below the series' start T=5\n")
        assert res.stdout == "" and summed == []
    else:
        assert res.exit_code == 0, res.output
        assert summed == [6]


def test_series_counts_start_where_the_series_starts(runner, tmp_path):
    # psi starts at 4 and phi at 2 (R = 1): both the sums and the counts
    # start at T = 4
    cfg = _cubic_with(tmp_path, R="1",
                      psi="powerlog c=1 alpha=1/2 delta=1 T0=4")
    out = tmp_path / "ser"
    res = runner.invoke(main, ["series", "--config", cfg, "--N", "20",
                               "--counts-to", "6", "--out", str(out)])
    assert res.exit_code == 0, res.output
    rows = [r.split(",") for r in
            (out / "series.csv").read_text().splitlines()[1:]]
    assert [r[0] for r in rows] == [str(T) for T in range(4, 21)]
    assert [r[0] for r in rows if r[5]] == ["4", "5", "6"]


def test_unwritable_out_is_config_error(runner, tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("")
    res = runner.invoke(main, ["badness", "--config", GOLDEN_CFG, "--height",
                               "5", "--out", str(blocker / "sub")])
    assert res.exit_code == 2
    assert res.stderr.startswith("config error: ")
    assert "Traceback" not in res.output


LATE_PHI_CFG = """\
ambient = 1
A_point = 0
A_dir_0 = 1
B_point = golden
psi = powerlaw c=1 alpha=1
phi = powerlog c=1 alpha=1 delta=1 T0=8
R = 1
T_min = 8
"""


@pytest.mark.parametrize("args", [
    ["verify", "--config", GOLDEN_CFG, "--T", "0"],
    ["verify", "--config", GOLDEN_CFG, "--T", "-2"],
    ["verify", "--config", GOLDEN_CFG, "--T", "3", "--translates", "0"],
    ["verify", "--config", GOLDEN_CFG, "--T", "3", "--translates", "-1"],
    ["enumerate", "--config", GOLDEN_CFG, "--T", "0"],
    ["series", "--config", GOLDEN_CFG, "--N", "0"],
    ["series", "--config", GOLDEN_CFG, "--N", "-3"],
    ["series", "--config", GOLDEN_CFG, "--N", "5", "--counts-to", "-3"],
    ["badness", "--config", GOLDEN_CFG, "--height", "-5"],
    ["badness", "--config", GOLDEN_CFG, "--height", "0"],
    ["badness", "--config", GOLDEN_CFG, "--vector", ","],
    ["badness", "--config", GOLDEN_CFG, "--vector", "1/3", "--x-max", "0"],
], ids=lambda args: " ".join(args[:1] + args[3:]))
def test_out_of_range_usage_exits_two(runner, args):
    # a usage error, not a failed property: exit 2 and no traceback, and
    # no silent fallback to the config's default
    res = runner.invoke(main, args)
    assert res.exit_code == 2, res.output
    assert isinstance(res.exception, SystemExit)
    assert "Traceback" not in res.output


@pytest.mark.parametrize("line, bad, message", [
    ("R = 1", "R = 0", "R must be >= 1"),
    ("R = 1", "R = -1", "R must be >= 1"),
    ("gamma = 23/100", "gamma = 0", "gamma must be > 0"),
    ("gamma = 23/100", "gamma = -1", "gamma must be > 0"),
    ("cert_height = 1000", "cert_height = -5", "cert_height must be >= 0"),
], ids=["R=0", "R=-1", "gamma=0", "gamma=-1", "cert_height=-5"])
@pytest.mark.parametrize("command", [
    ["verify", "--T", "3"], ["series", "--N", "5"], ["badness"],
], ids=["verify", "series", "badness"])
def test_out_of_range_config_exits_two(runner, tmp_path, line, bad, message,
                                       command):
    text = open(GOLDEN_CFG).read()
    assert line in text
    cfg = _write(tmp_path, "bad.cfg", text.replace(line, bad))
    res = runner.invoke(main, [command[0], "--config", cfg, *command[1:]])
    assert res.exit_code == 2
    assert res.stderr.startswith(f"config error: {message}")


def test_counts_below_phi_domain_exits_two(runner, tmp_path):
    # phi starts at T = 8 and R = 1, so --counts-to 3 leaves no scale
    cfg = _write(tmp_path, "late.cfg", LATE_PHI_CFG)
    res = runner.invoke(
        main, ["series", "--config", cfg, "--N", "20", "--counts-to", "3",
               "--out", str(tmp_path / "ser")]
    )
    assert res.exit_code == 2
    assert res.stderr == ("config error: empty T range: --counts-to 3 lies "
                          "below the series' start T=8\n")


def test_enumerate_omega_needs_gamma(runner, tmp_path):
    text = "\n".join(
        l for l in CONTROL_CFG.splitlines() if not l.startswith("gamma")
    )
    cfg = _write(tmp_path, "nogamma.cfg", text)
    res = runner.invoke(main, ["enumerate", "--config", cfg, "--T", "2"])
    assert res.exit_code == 2
    assert "gamma" in res.output


def test_series_table(runner, tmp_path):
    out = tmp_path / "ser"
    res = runner.invoke(
        main,
        ["series", "--config", GOLDEN_CFG, "--N", "10", "--counts-to", "5",
         "--out", str(out)],
    )
    assert res.exit_code == 0
    assert "S_10 = 535069999/153679680" in res.output
    rows = (out / "series.csv").read_text().splitlines()
    header = rows[0].split(",")
    assert header == ["T", "mu", "lambda", "term", "partial_sum",
                      "zeta", "pi_count", "ratio_int", "ratio_cumzeta"]
    assert len(rows) == 11
    first = rows[1].split(",")
    assert first[:5] == ["1", "1", "3/4", "3/4", "3/4"]
    assert first[5:7] == ["3", "6"]  # zeta_1, pi_1 on the full plane
    # counts beyond --counts-to stay blank
    assert rows[5].split(",")[5] != "" and rows[6].split(",")[5] == ""


def test_series_packing_manifest(runner, tmp_path):
    # the toy size of the benchmark's series-cubic workload
    out = tmp_path / "ser"
    res = runner.invoke(
        main,
        ["series", "--config", CUBIC_CFG, "--N", "100", "--counts-to", "10",
         "--out", str(out)],
    )
    assert res.exit_code == 0, res.output
    cfg = parse_config(CUBIC_CFG)
    scan = packing_ratio_scan(
        cfg.lifted_A, cfg.psi, cfg.phi, cfg.R, cfg.A.dim, cfg.B.dim,
        T_values=range(1, 11),
    )
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["packing"] == {
        "overall_median": format_rat(scan.overall_median),
        "top_quartile_median": format_rat(scan.top_quartile_median),
        "red_flag": scan.red_flag,
    }
    # the verdict adds nothing to series.csv: its digest is the toy-size
    # reference perfbench/run.py keeps for this workload
    digest = hashlib.sha256((out / "series.csv").read_bytes()).hexdigest()
    assert digest == (
        "20705a51ba755aa9258e7562131025ad5d157a32bdffaf9b8111fd50295cc8bb")
    # without counts there is no verdict to report
    res = runner.invoke(
        main, ["series", "--config", CUBIC_CFG, "--N", "5", "--out", str(out)])
    assert res.exit_code == 0
    assert "packing" not in json.loads((out / "manifest.json").read_text())


def test_verify_golden(runner):
    res = runner.invoke(
        main, ["verify", "--config", GOLDEN_CFG, "--T", "20", "--translates", "10"]
    )
    assert res.exit_code == 0
    assert "trivial for all T <= 20" in res.output


def test_verify_control_fails(runner, tmp_path):
    cfg = _write(tmp_path, "control.cfg", CONTROL_CFG)
    res = runner.invoke(main, ["verify", "--config", cfg, "--T", "5"])
    assert res.exit_code == 1
    assert "triviality FAILED at T=2: counterexample (2, 1)" in res.output


def test_montecarlo_refuses_divergent(runner, tmp_path, monkeypatch):
    # the refusal comes before the height-1000 certificate is built
    def no_certificate(*args, **kwargs):
        raise AssertionError("certificate built for a divergent run")

    monkeypatch.setattr(badlab.experiment, "subspace_badness", no_certificate)
    out = tmp_path / "mc"
    res = runner.invoke(
        main, ["montecarlo", "--config", GOLDEN_CFG, "--out", str(out)]
    )
    assert res.exit_code == 2
    assert "refused" in res.output


def test_montecarlo_negative_R_is_config_error(runner, tmp_path):
    # the config checks R >= 1 when it is loaded, before the series test
    # and the certificate run, so a negative R never reaches either
    text = (SMALL_MC_CFG.replace("R = 2", "R = -1")
            .replace("phi = powerlog c=1 alpha=1/2 delta=2 T0=2",
                     "phi = powerlaw c=1 alpha=1"))
    cfg = _write(tmp_path, "negR.cfg", text)
    res = runner.invoke(
        main, ["montecarlo", "--config", cfg, "--out", str(tmp_path / "o")])
    assert res.exit_code == 2
    assert "config error" in res.output


def test_montecarlo_ball_missing_A_is_config_error(runner, tmp_path,
                                                  monkeypatch):
    # the line x = 5 never enters the R = 2 ball: bad input, not a failed
    # check, so nothing is sampled and no certificate built
    _forbid_certificate(monkeypatch)
    text = (SMALL_MC_CFG.replace("A_point = cbrt2, cbrt4", "A_point = 5, golden")
            .replace("A_dir_0 = 1, cbrt2", "A_dir_0 = 0, 1")
            .replace("B_point = cbrt2, cbrt4", "B_point = 5, golden"))
    cfg = _write(tmp_path, "miss.cfg", text)
    res = runner.invoke(
        main, ["montecarlo", "--config", cfg, "--out", str(tmp_path / "o")])
    assert res.exit_code == 2
    assert "config error: the R ball misses A" in res.output


def test_montecarlo_zero_measure_chart_is_config_error(runner, tmp_path):
    # the line through (1 + 3e, 1 - 3e) along (1, -1), e = 2^-30, meets
    # the unit ball only at its corner (1, 1): nothing to sample from
    point = "1073741827/2^30, 1073741821/2^30"
    text = (SMALL_MC_CFG.replace("A_point = cbrt2, cbrt4", f"A_point = {point}")
            .replace("A_dir_0 = 1, cbrt2", "A_dir_0 = 1, -1")
            .replace("B_point = cbrt2, cbrt4", f"B_point = {point}")
            .replace("R = 2", "R = 1"))
    cfg = _write(tmp_path, "corner.cfg", text)
    res = runner.invoke(
        main, ["montecarlo", "--config", cfg, "--out", str(tmp_path / "o")])
    assert res.exit_code == 2
    assert res.stderr == (
        "config error: the R ball meets A in a set of measure zero\n")


@pytest.mark.parametrize("line, bad, message", [
    ("psi = powerlaw c=1 alpha=1", "psi = powerlaw c=1",
     "powerlaw rate lacks field 'alpha'"),
    ("phi = powerlaw c=1 alpha=1", "phi = powerlaw c=1 alpha=1 delta=2",
     "powerlaw rate takes no field 'delta'"),
    ("phi = powerlaw c=1 alpha=1", "phi = powerlog c=1 alpha=1 T0=3",
     "powerlog rate lacks field 'delta'"),
    ("phi = powerlaw c=1 alpha=1", "phi = powerlaw c=1 alpha=1 alpha=2",
     "repeated rate field 'alpha'"),
], ids=["missing", "unknown", "powerlog-missing", "repeated"])
@pytest.mark.parametrize("command", [
    ["verify", "--T", "3"], ["series", "--N", "5"], ["badness"],
], ids=["verify", "series", "badness"])
def test_bad_rate_fields_exit_two(runner, tmp_path, line, bad, message,
                                  command):
    text = open(GOLDEN_CFG).read()
    assert line in text
    cfg = _write(tmp_path, "bad.cfg", text.replace(line, bad))
    res = runner.invoke(main, [command[0], "--config", cfg, *command[1:]])
    assert res.exit_code == 2
    assert res.stderr == f"config error: {message}\n"


DIM3_CFG = """\
# A = R^3, so the chart is the cube [-1, 1]^3
ambient = 3
A_point = 0, 0, 0
A_dir_0 = 1, 0, 0
A_dir_1 = 0, 1, 0
A_dir_2 = 0, 0, 1
B_point = cbrt2, cbrt4, golden
psi = powerlaw c=1 alpha=1/3
phi = powerlog c=1 alpha=1/3 delta=2 T0=2
R = 1
samples = 100
X = 50
T_min = 2
T_max = 3
cert_height = 4
"""


def test_montecarlo_three_dimensional_chart(runner, tmp_path):
    cfg = _write(tmp_path, "dim3.cfg", DIM3_CFG)
    out = tmp_path / "mc"
    res = runner.invoke(main, ["montecarlo", "--config", cfg, "--out", str(out)])
    assert res.exit_code == 0, res.output
    tails = (out / "tails.csv").read_text().splitlines()
    assert len(tails) == 3  # the header, T = 2 and T = 3
    assert parse_config(cfg).chart_measure == 8


def test_montecarlo_small_run(runner, tmp_path):
    cfg = _write(tmp_path, "small.cfg", SMALL_MC_CFG)
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    res1 = runner.invoke(main, ["montecarlo", "--config", cfg, "--out", str(out1)])
    assert res1.exit_code == 0, res1.output
    res2 = runner.invoke(main, ["montecarlo", "--config", cfg, "--out", str(out2)])
    assert res2.exit_code == 0
    for name in ("report.json", "samples.csv", "tails.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    report = json.loads((out1 / "report.json").read_text())
    manifest = json.loads((out1 / "manifest.json").read_text())
    # the echoed config rebuilds to the same hash the manifest recorded
    rebuilt = config_from_echo(report["config"])
    assert config_hash(rebuilt.describe()) == manifest["config_hash"]
    assert report["zero_count"] == 0
    assert manifest["timing_seconds"] > 0
    assert manifest["rng"] == "philox4x64-10"
    assert {p.name for p in out1.iterdir()} == {
        "report.json", "samples.csv", "tails.csv", "manifest.json"}


def test_every_out_file_has_the_one_format(runner, tmp_path):
    # every file a command writes under --out: JSON at indent 2 with
    # sorted keys and a final newline, CSV lines ending in \n alone, and a
    # manifest that names the run; badness.json is what badness prints
    small = _write(tmp_path, "small.cfg", SMALL_MC_CFG)
    runs = [
        (["badness", "--config", CUBIC_CFG, "--height", "30"], 42,
         {"badness.json"}),
        (["verify", "--config", GOLDEN_CFG, "--T", "5"], 42, set()),
        (["enumerate", "--config", CUBIC_CFG, "--T", "4", "--set", "pi"], 42,
         {"points.csv"}),
        (["series", "--config", CUBIC_CFG, "--N", "20", "--counts-to", "4"],
         42, {"series.csv"}),
        (["montecarlo", "--config", small], 7,
         {"report.json", "samples.csv", "tails.csv"}),
    ]
    for args, seed, files in runs:
        out = tmp_path / args[0]
        res = runner.invoke(main, [*args, "--out", str(out)])
        assert res.exit_code == 0, res.output
        assert {p.name for p in out.iterdir()} == files | {"manifest.json"}
        for path in out.iterdir():
            data = path.read_bytes()
            if path.suffix == ".json":
                text = data.decode()
                assert text == json.dumps(json.loads(text), indent=2,
                                          sort_keys=True) + "\n", path
            else:
                assert data.endswith(b"\n") and b"\r" not in data, path
        manifest = json.loads((out / "manifest.json").read_text())
        assert {"tool_version", "command", "params", "seed"} <= set(manifest)
        assert manifest["command"] == args[0]
        assert manifest["seed"] == seed
        assert manifest["params"]["config"] == args[2]
        if args[0] == "badness":
            assert (out / "badness.json").read_text() == res.stdout


def test_config_echo_roundtrip(tmp_path):
    cfg_path = _write(tmp_path, "small.cfg", SMALL_MC_CFG)
    cfg = parse_config(cfg_path)
    assert cfg.sample_count == 12
    assert cfg.T_range == (2, 32)
    assert cfg.certificate.height == 64
    echo = cfg.describe()
    assert config_hash(echo) == config_hash(config_from_echo(echo).describe())


def test_config_echo_reproduces_certificate(tmp_path):
    # the rebuilt config derives its certificate again, so an echo whose
    # certificate does not reproduce hashes differently
    cfg = parse_config(_write(tmp_path, "small.cfg", SMALL_MC_CFG))
    echo = cfg.describe()
    cert = dict(echo["certificate"], gamma_lower="1/1000")
    altered = dict(echo, certificate=cert)
    rebuilt = config_from_echo(altered).describe()
    assert config_hash(rebuilt) != config_hash(altered)
    assert config_hash(rebuilt) == config_hash(echo)


def test_config_rejects_zero_hit_target(tmp_path):
    cfg = parse_config(_write(tmp_path, "control.cfg", CONTROL_CFG))
    with pytest.raises(ValueError, match="badly approximable"):
        cfg.certificate
