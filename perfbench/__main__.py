"""``python -m perfbench`` (run from the repository root)."""

import sys

from perfbench.cli import main
from perfbench.harness import ROOT

if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"perfbench: no src/repro under {ROOT}: nothing to benchmark")
sys.exit(main())
