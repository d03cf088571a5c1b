"""flickbench entry point, runnable from any directory.

    python3 benchmarks/flickbench/run.py --workload rpc --seed 0 --seconds 10 --trace 0
    python3 benchmarks/flickbench/run.py --seed 0 --sets 3 --out flickbench.json

Puts the checkout's ``src`` and root on ``sys.path`` and hands over to
:mod:`benchmarks.flickbench.runner`.  Exits 2 when the checkout holds no
``repro`` sources.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def main() -> int:
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"flickbench: no repro sources under {src}", file=sys.stderr)
        return 2
    for path in (str(ROOT), str(src)):
        if path not in sys.path:
            sys.path.insert(0, path)
    from benchmarks.flickbench.runner import main as run

    return run(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
