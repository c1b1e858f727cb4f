"""Fresh-interpreter probe for set-up time and peak memory.

    python3 bench/child.py [partialfid argv ...]

Imports `partialfid.cli` from the checkout's `src` (which imports numpy and
scipy.linalg), makes the first BLAS and LAPACK calls, and prints `ready`.
The parent times the interval from process start to that line.  Given an
argv, it then runs `partialfid.cli.main(argv)` once and prints a JSON line
with the exit code and the process's peak resident memory.
"""

from __future__ import annotations

import json
import resource
import sys
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from partialfid import cli  # noqa: E402

import numpy as np  # noqa: E402
import scipy.linalg  # noqa: E402

matrix = np.eye(64) + 1.0 / np.arange(1.0, 65.0)
scipy.linalg.eigvalsh(matrix @ matrix.T, subset_by_index=(0, 0))
print("ready", flush=True)

if len(sys.argv) > 1:
    try:
        code = cli.main(sys.argv[1:])
    except Exception:  # reported as a failed run by the parent
        traceback.print_exc()
        code = None
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps({"exit_code": code, "peak_rss_mb": peak_kib / 1024.0}),
          flush=True)
