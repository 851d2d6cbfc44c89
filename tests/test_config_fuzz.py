"""Random small configs through every subcommand, in process.

Every run ends in a documented exit code (0, 1 or 2) without a
traceback, and montecarlo refuses a config (exit 2) only before it has
built the badness certificate and drawn the samples: bad input is found
at load, not after the work.
"""

import os
import tempfile

import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st

import badlab.experiment
from badlab.cli import main
from badlab.experiment import ExperimentConfig

# (ambient, A_point, A_dir_0, B_point); the last puts B through an
# integer point, which montecarlo refuses when it builds the certificate
GEOMETRIES = [
    ("1", "0", "1", "golden"),
    ("1", "0", "1", "sqrt2"),
    ("2", "cbrt2, cbrt4", "1, cbrt2", "cbrt2, cbrt4"),
    ("2", "sqrt2, golden", "1, 1/2", "sqrt2, golden"),
    ("1", "0", "1", "1/2"),
]

FRACTIONS = st.sampled_from(["1/4", "1/2", "1", "2"])


@st.composite
def configs(draw):
    ambient, a_point, a_dir, b_point = draw(st.sampled_from(GEOMETRIES))
    alpha = "1" if ambient == "1" else "1/2"
    psi = f"powerlaw c=1 alpha={alpha}"
    if draw(st.integers(0, 9)):
        # phi is psi with a log factor, so the pair is mostly admissible
        phi = (f"powerlog c={draw(st.sampled_from(['1/4', '1/2', '1']))} "
               f"alpha={alpha} delta={draw(st.sampled_from(['1', '2', '3']))} "
               f"T0={draw(st.sampled_from(['2', '3']))}")
    else:
        phi = f"powerlaw c={draw(FRACTIONS)} alpha={draw(FRACTIONS)}"
    t_min = draw(st.integers(2, 3))
    lines = [
        f"ambient = {ambient}",
        f"A_point = {a_point}",
        f"A_dir_0 = {a_dir}",
        f"B_point = {b_point}",
        f"psi = {psi}",
        f"phi = {phi}",
        f"R = {draw(st.sampled_from(['1', '3/2', '2']))}",
        f"gamma = {draw(st.sampled_from(['1/5', '23/100', '1/2']))}",
        f"seed = {draw(st.integers(0, 99))}",
        f"samples = {draw(st.sampled_from([1, 2, 3, 0]))}",
        # an X of 1 or 2 lies below phi's domain start (LATE_X)
        f"X = {draw(st.sampled_from([1, 2, 3, 30, 200]))}",
        f"T_min = {t_min}",
        f"T_max = {t_min + draw(st.integers(0, 4))}",
    ]
    extra = draw(st.integers(0, 15))
    if extra == 0:
        lines.append(draw(st.sampled_from(
            ["sampels = 5", "thresholds = 1/4", "A_dir_2 = 1, 1"])))
    elif extra == 1:
        lines.append(draw(st.sampled_from(lines)))
    return "\n".join(lines) + "\n"


def _record_late_work(monkeypatch, ran):
    """Record in `ran` when a run has built the certificate or drawn its
    samples."""
    scan = ExperimentConfig.certificate

    def certificate(self):
        cert = scan.__get__(self, ExperimentConfig)
        ran.add("certificate")
        return cert

    draw = badlab.experiment.sample_on_A

    def sample_on_A(*args, **kwargs):
        out = draw(*args, **kwargs)
        ran.add("sample_on_A")
        return out

    monkeypatch.setattr(ExperimentConfig, "certificate", property(certificate))
    monkeypatch.setattr(badlab.experiment, "sample_on_A", sample_on_A)


# montecarlo refused this X only after the certificate and the samples
# until X was checked at load
LATE_X = """\
ambient = 2
A_point = cbrt2, cbrt4
A_dir_0 = 1, cbrt2
B_point = cbrt2, cbrt4
psi = powerlaw c=1 alpha=1/2
phi = powerlog c=1 alpha=1/2 delta=2 T0=2
R = 2
samples = 2
X = 1
T_max = 4
"""


@settings(max_examples=100, deadline=None)
@given(text=configs(), which=st.sampled_from(["omega", "pi", "zeta"]))
@example(text=LATE_X, which="zeta")
def test_random_configs_exit_cleanly(text, which):
    runner = CliRunner()
    with tempfile.TemporaryDirectory() as tmp:
        cfg = os.path.join(tmp, "fuzz.cfg")
        with open(cfg, "w") as fh:
            fh.write(text)
        for command in (
            ["badness"],
            ["verify", "--T", "4", "--translates", "3"],
            ["series", "--N", "8", "--counts-to", "4",
             "--out", os.path.join(tmp, "series")],
            ["enumerate", "--T", "3", "--set", which],
            ["montecarlo", "--out", os.path.join(tmp, "mc")],
        ):
            ran = set()
            with pytest.MonkeyPatch.context() as mp:
                _record_late_work(mp, ran)
                res = runner.invoke(main, [command[0], "--config", cfg,
                                           *command[1:]])
            # an uncaught exception shows as res.exception, not SystemExit
            assert res.exception is None or isinstance(
                res.exception, SystemExit), (command, text, res.exception)
            assert res.exit_code in (0, 1, 2), (command, text, res.output)
            assert "Traceback" not in res.output, (command, text)
            assert not (res.exit_code == 2 and ran), (
                f"{command[0]} refused after {sorted(ran)}: {res.output}\n"
                f"{text}")
