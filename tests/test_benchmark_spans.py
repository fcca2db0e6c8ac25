"""The benchmark's traced run wraps pauliprop functions by name; each must exist."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# run.py pins the BLAS thread count at import, so it is imported in a child
_SCRIPT = """
import json, run
targets = run.span_targets()
print(json.dumps([len(targets),
                  [f"{m.__name__}.{attr}" for m, attr, *_ in targets if not hasattr(m, attr)]]))
"""


def test_every_span_target_exists():
    path = os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")])
    out = subprocess.run([sys.executable, "-c", _SCRIPT], cwd=ROOT, check=True,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": path}).stdout
    count, missing = json.loads(out.splitlines()[-1])
    assert count > 0 and missing == []
