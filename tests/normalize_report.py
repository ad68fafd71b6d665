"""Normalize a ``cosetposets verify --out`` report for comparison with the
committed golden ``tests/verify_report.golden.json``: the run's
``timestamp`` and every record's ``millis`` are dropped, the rest is kept
as written.

    python tests/normalize_report.py report.json > report.normalized.json
"""

from __future__ import annotations

import json
import sys


def normalize(report: dict) -> dict:
    out = {k: v for k, v in report.items() if k != "timestamp"}
    out["records"] = [{k: v for k, v in r.items() if k != "millis"}
                      for r in report["records"]]
    return out


if __name__ == "__main__":
    with open(sys.argv[1]) as f:
        print(json.dumps(normalize(json.load(f)), indent=2))
