"""The benchmark's tracer installs on the package as it stands.

`bench/tracing.py` wraps the package's public functions from outside and
looks some of them up by name, so a function it names that leaves the
package would first fail in a benchmark run.  Here it fails in the suite.
"""

import json
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_tracer_installs_and_reports_every_metric():
    code = (
        "import sys; sys.path[:0] = ['bench', 'src']; import json, binoids.cli, tracing; "
        "t = tracing.Tracer(); t.install(); print(json.dumps(sorted(t.metrics(1, 1.0))))"
    )
    run = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True, timeout=60
    )
    assert run.returncode == 0, run.stderr
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    # bench/run.py adds the tracer's own overhead to what the tracer reports
    reported = json.loads(run.stdout) + ["trace.overhead_s"]
    assert sorted(reported) == sorted(m["name"] for m in declared)
