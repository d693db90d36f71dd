"""Set-up probe: one workload set up in a fresh interpreter.

Usage: ``python probe.py WORKLOAD SEED WORKDIR`` with ``src`` on
``PYTHONPATH``. Imports cointkit, generates the workload's inputs, runs one
warm-up operation (one experiment call, or one pass of the CLI session),
then prints one JSON line holding the SHA-256 of that operation's output
and exits. The parent times spawn-to-line as set-up and spawn-to-exit as
one command in a fresh interpreter.
"""

import json
import sys

import workloads


def main(workload: str, seed: int, workdir: str) -> None:
    if workload in workloads.MC_WORKLOADS:
        result = workloads.MC_WORKLOADS[workload].run(seed)
        digest = workloads.digest(workloads.fingerprint(result))
    else:
        digest = workloads.session_digest(workloads.cli_session(workdir, seed)[1])
    print(json.dumps({"sha256": digest}), flush=True)


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]), sys.argv[3])
