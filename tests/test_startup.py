"""Start-up cost: importing permlab, and commands that draw nothing, load no
numpy, and nothing loads the process-pool or compiler stacks before it runs
a pool or a build."""

import json
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import permlab.harness
from permlab import _native

SRC = Path(__file__).resolve().parents[1] / "src"

# Runs in a fresh interpreter with argv = [src, work directory, stacks...];
# prints which of the named stacks were loaded at each point as one JSON
# object.
PROBE = """
import contextlib, dataclasses, io, json, os, sys
sys.path.insert(0, sys.argv[1])
work, stacks = sys.argv[2], sys.argv[3:]
def loaded():
    return [name for name in stacks if name in sys.modules]
import permlab, permlab.cli
seen = {"import": loaded()}
def write(name, text):
    path = os.path.join(work, name)
    with open(path, "w") as fh:
        fh.write(text)
    return path
matrix = write("fig.pmat", "3\\n101\\n110\\n101\\n")
square = write("square.pmat", "4\\n1101\\n1110\\n0111\\n1011\\n")
zero = write("zero.pmat", "4\\n0000\\n0000\\n0000\\n0000\\n")
results = write("results.jsonl", json.dumps({
    "n": 4, "ones_count": 12, "seed": 0, "exact": 9, "estimate": 9.0, "rel_error": 0.0,
    "failed": False, "within_bound": True, "steps_taken": 1, "wall_seconds": 0.1,
    "epsilon": 0.5, "relax": [1, 1, 1, 1]}) + "\\n")
codes = []
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    for argv in (["exact", matrix], ["params", "--n", "8"], ["feasibility", "--n", "68"],
                 ["crossover"], ["report", results], ["estimate", square, "--epsilon", "2"]):
        codes.append(permlab.cli.main(argv))
seen["codes"] = codes
seen["commands"] = loaded()
from permlab.rng import BufferedDraws
BufferedDraws(0, 4)
seen["draws"] = loaded()
from permlab.harness import TrialConfig, run_trials
from permlab.params import RelaxationFactors
relax = RelaxationFactors(1000, 1000, 1000, 1000)
configs = [TrialConfig(path, 0.5, relax, seed) for seed, path in enumerate((square, zero))]
def unclocked(workers):
    return [dataclasses.replace(r, wall_seconds=0.0) for r in run_trials(configs, workers)]
serial = unclocked(1)
seen["one worker"] = loaded()
seen["pool matches"] = unclocked(2) == serial
seen["pool"] = loaded()
seen["trials"] = [[r.exact, r.steps_taken > 0] for r in serial]
print(json.dumps(seen))
"""


def test_numpy_loads_at_the_first_draw_and_not_before(tmp_path):
    stacks = ["concurrent.futures", "multiprocessing", "subprocess", "numpy"]
    # The probe's exact finds the kernel library in the cache and builds
    # nothing. Where none can be built, the probe tries a build of its own.
    if _native.load_library() is None:
        stacks.remove("subprocess")
    done = subprocess.run(
        [sys.executable, "-c", PROBE, str(SRC), str(tmp_path), *stacks],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    seen = json.loads(done.stdout)
    pool = seen.pop("pool")
    assert seen == {
        "import": [],
        "codes": [0, 0, 0, 0, 0, 1],
        "commands": [],
        "draws": ["numpy"],
        "one worker": ["numpy"],
        "pool matches": True,
        "trials": [[9, True], [0, False]],
    }
    assert {"concurrent.futures", "multiprocessing", "numpy"} <= set(pool)


def test_process_pool_executor_stays_a_harness_attribute():
    # perfbench/refclock.py (PoolSamples) and perfbench/tracer.py (install)
    # read and replace harness.ProcessPoolExecutor, so it must stay a
    # module attribute of permlab.harness.
    assert permlab.harness.ProcessPoolExecutor is ProcessPoolExecutor
