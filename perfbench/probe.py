"""Set-up probe: time `import kadjust` plus one cold 35-bit `adjusted` call.

Run in a fresh interpreter with kadjust's source directory on PYTHONPATH;
prints {"setup_s": ..., "reference_s": ..., "module": ...} on one line.
Only the standard library is imported before the clock starts.  The
reference sample taken afterwards lets run.py normalize the set-up time
for machine speed the way workloads.py normalizes operation times.
"""

import json
import time

WORD35 = "01010001001000001010000100000100001"

start = time.perf_counter()
import kadjust  # noqa: E402

kadjust.adjusted(kadjust.BitWord.from01(WORD35), kadjust.CoderId("shell"))
elapsed = time.perf_counter() - start

from workloads import reference_sample  # noqa: E402

reference_s = sorted(reference_sample() for _ in range(3))[1]
print(json.dumps({"setup_s": elapsed, "reference_s": reference_s, "module": kadjust.__file__}))
