"""One set-up round of a workload, in a fresh interpreter.

Imports the program and builds the workload's inputs from the seed
into a directory (nothing for ``study``, the crashed store for
``campaign``, the finished store for ``replay``), then prints
``{"setup_s": …}``: the seconds from interpreter start-up to inputs
ready.  ``run.py`` runs several rounds and reports their median.

    python3 perfbench/prepare.py <workload> <seed> <directory>
"""

import time

START = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402


def main(argv) -> int:
    name, seed, directory = argv[1], int(argv[2]), Path(argv[3])
    directory.mkdir(parents=True, exist_ok=True)
    workloads.WORKLOADS[name].prepare(seed, directory)
    print(json.dumps({"setup_s": time.perf_counter() - START}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
