"""Shared fixtures: the two reference instances used across the suite.

The golden line (d=1) and the cubic pair line (d=2) are the workhorses;
their badness certificates take a couple of seconds each to scan, so
each config is built once per session and derives its certificate once.

Also the helpers tests build their inputs with: preset_value and vec.
"""

import time

import pytest

from badlab.badness import BadnessCertificate
from badlab.exactnum import Rat, as_rat, rat
from badlab.experiment import ExperimentConfig
from badlab.geometry import AffineSubspace, LiftedSpan, Vec
from badlab.presets import PRESETS
from badlab.rates import PowerLaw, PowerLog


def preset_value(name: str) -> Rat:
    return PRESETS[name]


def vec(*coords) -> Vec:
    return tuple(as_rat(c) for c in coords)


GOLDEN = preset_value("golden")
CBRT2 = preset_value("cbrt2")
CBRT4 = preset_value("cbrt4")


@pytest.fixture(scope="session")
def unit_psi():
    return PowerLaw(rat(1), rat(1))


@pytest.fixture(scope="session")
def golden_span():
    # lifted span of the point {golden} in R^1
    return LiftedSpan(basis=((rat(1), GOLDEN),), ambient=2)


@pytest.fixture(scope="session")
def golden_config(unit_psi) -> ExperimentConfig:
    # d=1, A = R^1, B = {golden}, psi = phi = 1/T
    A = AffineSubspace(point=(rat(0),), directions=((rat(1),),))
    B = AffineSubspace(point=(GOLDEN,), directions=())
    return ExperimentConfig(
        A=A,
        B=B,
        psi=unit_psi,
        phi=unit_psi,
        R=rat(1),
        cert_height=1000,
        sample_count=100,
        X=10**4,
        T_range=(2, 100),
        seed=42,
    )


@pytest.fixture(scope="session")
def golden_cert(golden_config) -> BadnessCertificate:
    return golden_config.certificate


@pytest.fixture(scope="session")
def cubic_A():
    return AffineSubspace(point=(CBRT2, CBRT4), directions=((rat(1), CBRT2),))


@pytest.fixture(scope="session")
def cubic_B():
    return AffineSubspace(point=(CBRT2, CBRT4), directions=())


@pytest.fixture(scope="session")
def cubic_psi():
    return PowerLaw(rat(1), rat(1, 2))


@pytest.fixture(scope="session")
def cubic_phi():
    return PowerLog(rat(1), rat(1, 2), rat(2), rat(2))


@pytest.fixture(scope="session")
def cubic_config(cubic_A, cubic_B, cubic_psi, cubic_phi) -> ExperimentConfig:
    return ExperimentConfig(
        A=cubic_A,
        B=cubic_B,
        psi=cubic_psi,
        phi=cubic_phi,
        R=rat(2),
        cert_height=512,
        sample_count=100,
        X=10**5,
        T_range=(2, 256),
        seed=42,
    )


@pytest.fixture(scope="session")
def cubic_cert(cubic_config) -> BadnessCertificate:
    return cubic_config.certificate


@pytest.fixture(scope="session")
def cubic_run(cubic_config):
    """(report, wall seconds) for the reference end-to-end run."""
    from badlab.experiment import run_theorem1

    t0 = time.monotonic()
    report = run_theorem1(cubic_config)
    return report, time.monotonic() - t0


@pytest.fixture(scope="session")
def cubic_report(cubic_run):
    return cubic_run[0]
