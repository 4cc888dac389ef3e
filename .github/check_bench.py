"""Exit non-zero unless a perfbench run reports correct with 0 failed.

Usage: python3 .github/check_bench.py LABEL OUTPUT_FILE

OUTPUT_FILE holds the run's stdout; its last line is the JSON result.
"""

import json
import sys


def main(label: str, path: str) -> None:
    with open(path) as fh:
        last = fh.read().splitlines()[-1]
    result = json.loads(last)
    if result.get("correct") is not True or result.get("failed") != 0:
        sys.exit(f"{label} is not correct with 0 failed: " + last[:300])


if __name__ == "__main__":
    main(*sys.argv[1:])
