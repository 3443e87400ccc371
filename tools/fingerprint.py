"""Behaviour fingerprint of the planram CLI.

    python3 tools/fingerprint.py

Run from anywhere; planram is loaded from the ``src`` of this checkout.
Each line of COMMANDS runs in a fresh interpreter, one after another, and
``FINGERPRINT.json`` at the root of the checkout records, per command, its
exit code and the SHA-256 of its stdout. Certificates are hashed without
their ``runtime_ms`` field, the one part of a certificate that differs
between runs. Equal files mean equal exit codes and output on every
command, so ``git diff`` of the file shows what a change moved. The list
takes about 38 s on a 2-core Intel Xeon machine (Python 3.11.7).
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# the claims workload of perfbench at seed 1, with its --workers 2
CLAIMS = [
    *(f"verify pr-lower --wheel {w} --workers 2"
      for w in (3, 4, 5, 6, 7, 8, 34)),
    *(f"verify pr-upper --wheel {w} --host 9 --workers 2" for w in (4, 6)),
    *(f"verify delta --n {n} --workers 2" for n in (8, 9, 29, 63, 49, 56)),
    "verify lemmas --n 7 --workers 2",
]

COMMANDS = [
    *(f"enumerate --n {n}" for n in (8, 9, 10)),
    *(f"enumerate --n {n} --maximal-only --format {fmt}"
      for n in (9, 11) for fmt in ("graph6", "planar_code")),
    "enumerate --mode triangulation --n 11 --format planar_code",
    "enumerate --mode triangulation --min-degree 5 --n 14",
    *CLAIMS,
    *(f"verify lemmas --n {n}" for n in range(2, 12)),
    "verify fact --id fact1",
    "verify fact --id fact2",
    *(f"construct witness --wheel {w}" for w in (3, 4, 5, 6, 7, 8, 40)),
    "verify pr-lower --wheel 40",
    # wheels that are no wheel or do not fit in the host
    "verify pr-upper --wheel 2 --host 12",
    "verify pr-upper --wheel 20 --host 15",
    "verify pr-upper --wheel 2 --host 9 --budget-nodes 0",
]


def without_runtime(stdout: bytes) -> bytes:
    """Certificate lines, one per line, each without ``runtime_ms``."""
    certs = [json.loads(line) for line in stdout.splitlines()]
    for cert in certs:
        del cert["runtime_ms"]
    return b"".join(json.dumps(cert, sort_keys=True, separators=(",", ":"))
                    .encode() + b"\n" for cert in certs)


def fingerprint(command: str) -> dict:
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("PLANRAM_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    out = subprocess.run(
        [sys.executable, "-m", "planram.cli", *command.split()],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, env=env,
        cwd=ROOT, check=False)
    stdout = out.stdout
    if command.startswith("verify"):
        stdout = without_runtime(stdout)
    return {"command": command, "exit": out.returncode,
            "stdout_sha256": hashlib.sha256(stdout).hexdigest()}


def main() -> int:
    entries = [fingerprint(c) for c in COMMANDS]
    (ROOT / "FINGERPRINT.json").write_text(json.dumps(entries, indent=1)
                                           + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
