"""Set-up probe: interpreter start, `import peepgen` and the fixture load.

`run.py` times this script from process start to exit, several times, and
reports the median as setup_s.  Run from anywhere:

    python3 perfbench/setup_probe.py
"""
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import peepgen.cli  # noqa: E402,F401  the modules the `peepgen` command loads
from peepgen import fixtures  # noqa: E402

fixtures.load_fixtures(ROOT / "fixtures")
