"""Record the ``cli-queries`` pool: each query's exit code and the SHA-256
of its stdout, from the code in ``src/`` of this checkout.

    python3 bench/record_golden.py

Run it only to re-record on purpose, at a commit whose CLI output is the
reference; it rewrites ``bench/cli_golden.json`` and prints each query's
latency so that the cost classes in ``cli_pool.py`` can be checked.
"""

from __future__ import annotations

import hashlib
import json
import sys

import cli_pool
import run

RECORD_DEADLINE_S = 60.0


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    import rookorder
    strata = {}
    for name, argvs in cli_pool.make_pool_argv(rookorder).items():
        entries = []
        for argv in argvs:
            result = run.run_query(argv, RECORD_DEADLINE_S)
            if result["rc"] != 0:
                print(f"rookorder {' '.join(argv)}: exit {result['rc']}", file=sys.stderr)
                return 1
            entries.append({"argv": argv, "rc": result["rc"],
                            "sha256": hashlib.sha256(result["stdout"]).hexdigest()})
            print(f"{name}\t{result['s']:.3f}\t{' '.join(argv)}")
        strata[name] = entries
    with open(cli_pool.POOL_FILE, "w", encoding="utf-8") as fh:
        json.dump({"pool_seed": cli_pool.POOL_SEED, "strata": strata}, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
