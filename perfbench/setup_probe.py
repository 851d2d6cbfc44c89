"""Set-up probe: import the CLI, load one config, report when that returned.

    python3 perfbench/setup_probe.py CONFIG

Prints one JSON line: `ready`, the CLOCK_MONOTONIC time at which
`import badlab.cli` and `parse_config` (with its admissibility check) had
returned, and the environment the program runs in (kernel backend, rational
carrier, Python version, cpu count, the BADLAB_* variables).  The caller
takes its own CLOCK_MONOTONIC reading before spawning this process, so the
difference is set-up time measured from spawn.
"""

import sys
import time

import badlab.cli

badlab.cli.parse_config(sys.argv[1])
ready = time.monotonic()

import json  # noqa: E402  (after the timed region on purpose)
import os  # noqa: E402
import platform  # noqa: E402

from badlab import exactnum, kernels  # noqa: E402

print(json.dumps({
    "ready": ready,
    "env": {
        "backend": kernels.backend_name(),
        "carrier": "gmpy2" if exactnum.HAVE_GMPY2 else "fraction",
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "BADLAB_PRECISION_BITS": os.environ.get("BADLAB_PRECISION_BITS"),
        "BADLAB_FORCE_PURE": os.environ.get("BADLAB_FORCE_PURE"),
    },
}))
