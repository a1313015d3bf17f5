"""Rewrite every golden output of tests/test_golden.py from the code in src/:

    PYTHONPATH=src python tests/golden/regenerate.py
"""

import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

from test_golden import CASES, run_case  # noqa: E402

for name in CASES:
    with tempfile.TemporaryDirectory() as tmp:
        (HERE / f"{name}.json").write_text(run_case(name, Path(tmp)))
    print(f"wrote {name}.json")
