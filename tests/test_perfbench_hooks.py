"""The benchmark's hooks into the package still resolve.

perfbench/tracer.py rebinds a list of badlab functions by name, and
perfbench/setup_probe.py imports the CLI and loads a config.  A rename
that breaks either would otherwise show only when the benchmark runs.
Both run in a fresh interpreter with `src` on PYTHONPATH, as the
benchmark runs them.  The tracer also runs the two benchmarked workloads
end to end at toy size, so a wrapped function whose return shape no
longer fits its counting hook fails here too.
"""

import importlib.util
import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _run(*args):
    env = dict(os.environ)
    paths = [os.path.join(ROOT, "src"), env.get("PYTHONPATH", "")]
    env["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)
    return subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=120,
    )


def test_tracer_install_and_setup_probe():
    res = _run("-c", "import sys; sys.path.insert(0, 'perfbench'); "
                     "from tracer import Tracer, install; install(Tracer())")
    assert res.returncode == 0, res.stderr
    res = _run(os.path.join("perfbench", "setup_probe.py"),
               os.path.join("configs", "golden.cfg"))
    assert res.returncode == 0, res.stderr
    probe = json.loads(res.stdout)
    assert probe["env"]["carrier"] in ("gmpy2", "fraction")


def _perfbench_run(monkeypatch):
    """perfbench/run.py as a module, for its workloads and config writer."""
    path = os.path.join(ROOT, "perfbench", "run.py")
    spec = importlib.util.spec_from_file_location("perfbench_run", path)
    mod = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up by name
    monkeypatch.setitem(sys.modules, spec.name, mod)
    spec.loader.exec_module(mod)
    return mod


@pytest.mark.parametrize("name", ["mc-cubic", "series-cubic"])
def test_tracer_runs_toy_workload(tmp_path, monkeypatch, name):
    bench = _perfbench_run(monkeypatch)
    wl = bench.WORKLOADS[name]
    size = wl.sizes["toy"]
    cfg = tmp_path / wl.config
    bench.write_config(wl, size, bench.DEFAULT_SEED, cfg)
    out = tmp_path / "out"
    argv = [wl.subcommand, "--config", str(cfg), *size.args, "--out", str(out)]

    plain = _run("-m", "badlab.cli", *argv)
    assert plain.returncode == 0, plain.stderr
    expect = {f: (out / f).read_bytes() for f in wl.outputs}
    shutil.rmtree(out)

    stats, stdout = tmp_path / "stats.json", tmp_path / "stdout.txt"
    traced = _run(os.path.join("perfbench", "tracer.py"),
                  "--spans", str(tmp_path / "spans.jsonl"),
                  "--stats", str(stats), "--stdout", str(stdout),
                  "--", *argv)
    assert traced.returncode == 0, traced.stderr
    assert json.loads(stats.read_text())["metrics"]
    assert stdout.read_text() == plain.stdout
    assert {f: (out / f).read_bytes() for f in wl.outputs} == expect
