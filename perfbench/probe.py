"""Set-up probe: import ``hog`` and run one warm-up operation, then report.

Usage: python3 perfbench/probe.py SRC_DIR CLI_ARG...

The parent times this process from its start until it prints ``ready``, so
the measurement holds interpreter start, the ``hog`` import and the warm-up
operation. Only the standard library is imported here besides ``hog``.
"""

import contextlib
import io
import sys

sys.path.insert(0, sys.argv[1])

import hog.cli  # noqa: E402

with contextlib.redirect_stdout(io.StringIO()):
    rc = hog.cli.main(sys.argv[2:])
print("ready" if rc == 0 else f"warm-up exited {rc}", flush=True)
sys.exit(0 if rc == 0 else 1)
