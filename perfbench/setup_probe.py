"""Set-up probe, run in a fresh interpreter by run.py.

    PYTHONPATH=src python3 perfbench/setup_probe.py CODE.json [CODE.json ...]

Prints the seconds taken to import cwskit and then load and validate
each code file, the set-up a user of the command line pays per run.
"""

import json
import sys
import time

start = time.perf_counter()
import cwskit  # noqa: E402

for path in sys.argv[1:]:
    with open(path) as fh:
        cwskit.cws.from_dict(json.load(fh))
print(time.perf_counter() - start)
