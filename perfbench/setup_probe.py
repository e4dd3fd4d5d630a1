"""Time one fresh interpreter's set-up: import the CLI, build the presets.

Usage: python3 setup_probe.py PRESET [PRESET ...]; prints seconds on stdout.
Each preset is loaded with its recommended backend and given the weight
system the CLI builds for it, as every command does before computing.
"""

import time

START = time.perf_counter()

import sys  # noqa: E402

from bratlap import cli  # noqa: E402,F401
from bratlap.measure import DEFAULT_APPROX_BITS, WeightSystem  # noqa: E402
from bratlap.presets import load_preset  # noqa: E402

for name in sys.argv[1:]:
    bundle = load_preset(name)
    WeightSystem(bundle.diagram, bundle.perron, approx_bits=DEFAULT_APPROX_BITS)
print(repr(time.perf_counter() - START))
