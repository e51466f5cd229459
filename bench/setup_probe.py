"""Prints the seconds a fresh interpreter spends on ``import statecast`` plus
``cli.parse_config`` of each config path given on the command line."""

import sys
from time import perf_counter

t0 = perf_counter()
import statecast  # noqa: E402
from statecast import cli  # noqa: E402

for path in sys.argv[1:]:
    cli.parse_config(path)
print(perf_counter() - t0)
