import os
import subprocess
import sys
from pathlib import Path

import fracmoment


def test_import_loads_neither_scipy_signal_nor_interpolate():
    src = str(Path(fracmoment.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = (
        "import sys, fracmoment\n"
        "print(' '.join(m for m in ('scipy.signal', 'scipy.interpolate') if m in sys.modules))"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == ""
