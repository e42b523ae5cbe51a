"""One workload set-up in a fresh interpreter: import the package and build
the workload's inputs.  ``run.py`` times this process to report ``setup_s``.

    python3 perfbench/prepare.py <workload> <seed> <workdir>
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402

if __name__ == "__main__":
    name, seed, workdir = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    workdir.mkdir(parents=True, exist_ok=True)
    workloads.make(name).prepare(seed, workdir)
