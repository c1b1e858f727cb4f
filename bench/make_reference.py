"""Regenerate `reference_fields.json`, the stored interior Heisenberg fields.

Run from the repository root:

    python3 bench/make_reference.py

It solves a full Heisenberg curve at every size a `heisenberg-curve` seed can
produce and stores h_2 ... h_{N/2-1} of each; h_0 and h_1 have closed forms
and are not stored.  Regenerate only when the solver's answer is meant to
change, and say why in the change that does it.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from partialfid import bethe  # noqa: E402

import check  # noqa: E402
import workloads  # noqa: E402


def main():
    fields = {}
    for n in workloads.reachable_curve_sizes():
        fields[str(n)] = [point.crossing.field
                          for point in bethe.heisenberg_curve(n)[2:]]
    document = {
        "description": "interior crossing fields h_2..h_{N/2-1} of the "
                       "Heisenberg ring, by N",
        "tolerance": check.REFERENCE_FIELD_TOL,
        "fields": fields,
    }
    check.REFERENCE_PATH.write_text(json.dumps(document, indent=1) + "\n")


if __name__ == "__main__":
    main()
