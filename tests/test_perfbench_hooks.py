"""The benchmark's hooks into the package still resolve.

perfbench/tracer.py rebinds a list of badlab functions by name, and
perfbench/setup_probe.py imports the CLI and loads a config.  A rename
that breaks either would otherwise show only when the benchmark runs.
Both run in a fresh interpreter with `src` on PYTHONPATH, as the
benchmark runs them.
"""

import json
import os
import subprocess
import sys

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
