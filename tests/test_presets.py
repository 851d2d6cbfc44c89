from click.testing import CliRunner

from badlab.cli import main
from badlab.exactnum import rat
from badlab.presets import PRESET_BITS, PRESET_EPS, PRESETS

from conftest import preset_value


def test_preset_error_budget():
    # each stand-in solves its defining equation to within a few ulps of
    # the 2^-200 truncation grid
    eps = PRESET_EPS
    g = preset_value("golden")
    assert abs(g * g + g - 1) < 4 * eps
    s = preset_value("sqrt2")
    assert abs(s * s - 2) < 4 * eps
    c2 = preset_value("cbrt2")
    assert abs(c2 * c2 * c2 - 2) < 8 * eps
    c4 = preset_value("cbrt4")
    assert abs(c4 * c4 * c4 - 4) < 16 * eps


def test_presets_are_truncations():
    # truncation, not rounding: the value sits at or below the real number
    g = preset_value("golden")
    assert (g + PRESET_EPS) ** 2 + (g + PRESET_EPS) - 1 > 0
    assert g * g + g - 1 < 0


def test_preset_denominators_dyadic():
    for name in PRESETS:
        v = preset_value(name)
        d = int(v.denominator)
        assert d & (d - 1) == 0
        assert d <= 1 << PRESET_BITS


def test_preset_lookup(tmp_path):
    assert preset_value("golden") == PRESETS["golden"]
    # a name that is no preset is bad config input
    text = open("configs/golden.cfg").read()
    assert "B_point = golden" in text
    cfg = tmp_path / "pi.cfg"
    cfg.write_text(text.replace("B_point = golden", "B_point = pi"))
    res = CliRunner().invoke(main, ["badness", "--config", str(cfg)])
    assert res.exit_code == 2
    assert res.stderr == (
        "config error: unknown preset 'pi'; choose from "
        "['cbrt2', 'cbrt4', 'golden', 'sqrt2']\n")


def test_preset_precision_scale():
    # roughly 60 decimal digits of agreement
    assert PRESET_BITS == 200
    assert rat(1, 10**60) > PRESET_EPS
