"""Run one benchmark workload from the root of a hexreg checkout.

    python3 perfbench/run.py --workload train_hex --seed 1 --seconds 20 --trace 0

The program is imported from ``src/`` of the same checkout; without it the
run fails with exit code 2 and prints no result.
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

if __name__ == "__main__":
    if not os.path.isfile(os.path.join(SRC, "hexreg", "__init__.py")):
        print(f"perfbench: no hexreg sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path[:0] = [SRC, ROOT]
    from perfbench.bench import main
    sys.exit(main(root=ROOT))
