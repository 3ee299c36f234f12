"""One set-up trial in a fresh interpreter: import branchnet, then load every
input file of a workload through ``branchnet.io``.

Usage: python3 -I load_inputs.py SRC_DIR MANIFEST_JSON
Prints {"import_s": ..., "load_s": ...} on standard output.
"""

import json
import sys
import time

t0 = time.perf_counter()
src, manifest = sys.argv[1], sys.argv[2]
sys.path.insert(0, src)
import branchnet  # noqa: E402
import branchnet.io  # noqa: E402

t1 = time.perf_counter()
if not branchnet.__file__.startswith(src):
    sys.exit(f"imported branchnet from {branchnet.__file__}, not from {src}")
with open(manifest) as fh:
    files = json.load(fh)
loaders = {"measure": branchnet.io.load_measure, "network": branchnet.io.load_network}
for kind, path in files:
    loaders[kind](path)
t2 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "load_s": t2 - t1}))
