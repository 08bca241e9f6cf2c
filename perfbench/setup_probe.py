"""Time one set-up of fastslow: package import plus model construction.

Usage: python3 perfbench/setup_probe.py <src directory>

Prints the seconds taken and, on a second line, the imported package path.
run.py starts this several times in fresh interpreters and reports the
median as ``setup_s``.
"""

import sys
import time

t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import fastslow.cli  # noqa: E402  (imports numpy, scipy and every layer)
from fastslow.models import michaelis_menten_model  # noqa: E402

michaelis_menten_model()
print(time.perf_counter() - t0)
print(fastslow.__file__)
