#!/usr/bin/env python3
"""Digests of every command's report on the shipped configs.

Runs each of the seven commands on the example configs in
``scripts/configs/`` and the benchmark configs in ``perfbench/configs/``,
at ``--threads 1`` and ``2``, each in a fresh interpreter against this
checkout's ``src/``, and prints one line a run:

    config command threads exit sha256(stdout) sha256(stderr)

Two checkouts whose outputs are equal give byte-identical reports, so a
change that claims to leave every report alone is checked by running this
script in the old checkout and the new one and diffing the two outputs:

    python3 scripts/report_digests.py > new.txt
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COMMANDS = ("simulate", "gg1", "stationary", "classify", "compare", "regen", "tails")
CONFIG_DIRS = ("scripts/configs", "perfbench/configs")


def main() -> None:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    configs = sorted(p.relative_to(ROOT).as_posix()
                     for d in CONFIG_DIRS for p in (ROOT / d).glob("*.json"))
    for config in configs:
        for command in COMMANDS:
            for threads in (1, 2):
                run = subprocess.run(
                    [sys.executable, "-m", "maxdater.cli", command, "--config", config,
                     "--threads", str(threads)],
                    cwd=ROOT, env=env, capture_output=True)
                digests = (hashlib.sha256(run.stdout).hexdigest(),
                           hashlib.sha256(run.stderr).hexdigest())
                print(config, command, threads, run.returncode, *digests, flush=True)


if __name__ == "__main__":
    main()
