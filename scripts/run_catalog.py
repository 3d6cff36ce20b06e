#!/usr/bin/env python3
"""Run every built-in scenario and print a one-line summary per scenario.

Each summary line carries a SHA-256 over the names and bytes of the
scenario's CSV files and ``verdicts.json``, so two runs are byte-identical
exactly when their standard outputs are (``diff`` the two).  Wall times go
to standard error.
"""

import hashlib
import sys
import time
from pathlib import Path

from sdelab import cli


def output_digest(out_dir: Path) -> str:
    """SHA-256 over each CSV and ``verdicts.json`` in ``out_dir``: name, then bytes."""
    h = hashlib.sha256()
    for path in sorted(out_dir.glob("*.csv")) + sorted(out_dir.glob("verdicts.json")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def main() -> int:
    out_root = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("out")
    worst = 0
    for name in cli.BUILTIN_NAMES:
        cfg = cli.load_config(name)
        t0 = time.perf_counter()
        report = cli.run_scenario(cfg, out_root / name)
        print(f"{name:24s} {time.perf_counter() - t0:5.1f}s", file=sys.stderr)
        code = report["status"]["exit_code"]
        worst = max(worst, code)
        verdicts = report["stages"].get("criteria", [])
        # a criterion that failed numerically has an "error" row and no verdict
        summary = ", ".join(f"{v['id']}={v.get('verdict', 'error')}" for v in verdicts) or "no criteria"
        print(f"{name:24s} exit={code} sha256={output_digest(out_root / name)}  {summary}")
        for note in report["status"]["notes"]:
            print(f"{'':24s}  - {note}")
    return worst


if __name__ == "__main__":
    raise SystemExit(main())
