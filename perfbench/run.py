"""fallfact benchmark: one workload, one seed, one process.

    python3 perfbench/run.py --workload cli-tour --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; it measures the package under ./src and
refuses to run against any other copy.  Prints a readable report and, as
the last line, one JSON object: with --trace 0 the end-to-end metrics of
BENCHMARK.json, with --trace 1 the per-layer metrics of a separate traced
run.  perfbench/README.md says what each workload does and why.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.bench import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
