"""Record the stdout digest of every argv the CLI workloads can generate.

Each argv runs as `python -m jcouple ...` in its own process, exactly as a
user runs it, and the SHA-256 of its stdout goes to expected_digests.json.
The committed file was recorded at the commit that introduced the benchmark;
re-record only when a change to the CLI output is intended, because the
audit-grid and schemes-spectra gates compare against it.

    PYTHONPATH=src python3 perfbench/record_digests.py
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import gates
import inputs

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    table = {}
    for argv in inputs.digest_argvs():
        out = subprocess.run(
            [sys.executable, "-m", "jcouple", *argv],
            cwd=ROOT,
            env=env,
            stdout=subprocess.PIPE,
            check=True,
        ).stdout
        table[" ".join(argv)] = hashlib.sha256(out).hexdigest()
    gates.EXPECTED_PATH.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(table)} digests in {gates.EXPECTED_PATH.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
