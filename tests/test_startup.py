"""Start-up cost: importing permlab, and commands that draw nothing, load no numpy."""

import json
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import permlab.harness

SRC = Path(__file__).resolve().parents[1] / "src"

# Runs in a fresh interpreter with argv = [src, work directory]; prints
# whether numpy was loaded at each point as one JSON object.
PROBE = """
import contextlib, io, json, os, sys
sys.path.insert(0, sys.argv[1])
import permlab, permlab.cli
seen = {"import": "numpy" in sys.modules}
matrix = os.path.join(sys.argv[2], "fig.pmat")
with open(matrix, "w") as fh:
    fh.write("3\\n101\\n110\\n101\\n")
codes = []
with contextlib.redirect_stdout(io.StringIO()):
    for argv in (["exact", matrix], ["params", "--n", "8"], ["feasibility", "--n", "68"],
                 ["crossover"]):
        codes.append(permlab.cli.main(argv))
seen["codes"] = codes
seen["commands"] = "numpy" in sys.modules
from permlab.rng import BufferedDraws
BufferedDraws(0, 4)
seen["draws"] = "numpy" in sys.modules
print(json.dumps(seen))
"""


def test_numpy_loads_at_the_first_draw_and_not_before(tmp_path):
    done = subprocess.run(
        [sys.executable, "-c", PROBE, str(SRC), str(tmp_path)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    seen = json.loads(done.stdout)
    assert seen == {"import": False, "codes": [0, 0, 0, 0], "commands": False, "draws": True}


def test_process_pool_executor_stays_a_harness_attribute():
    # perfbench/refclock.py (PoolSamples) and perfbench/tracer.py (install)
    # read and replace harness.ProcessPoolExecutor, so it must stay a
    # module-level import of permlab.harness.
    assert permlab.harness.ProcessPoolExecutor is ProcessPoolExecutor
