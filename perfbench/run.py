"""Entry point of the repository benchmark.

Run from the repository root::

    python3 perfbench/run.py --workload small_sorts --seed 1 --seconds 20 --trace 0

Workloads are defined in ``perfbench/workloads.py``; ``BENCHMARK.json``
lists them with the metrics and their bounds.  The last line printed is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; spans and per-op samples go to ``perfbench/out/``.
"""

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

if __name__ == "__main__":
    # string hashing moves host CPU between runs; pin it and re-exec so
    # the interpreter itself starts with the pinned seed
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable, *sys.argv])
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no repro sources under {ROOT / 'src'}; "
                 "run from a checkout of the repository")
    sys.path[:0] = [str(ROOT / "src"), str(Path(__file__).parent)]
    from bench import main

    sys.exit(main())
