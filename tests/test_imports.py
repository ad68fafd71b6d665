import json
import os
import subprocess
import sys
from pathlib import Path

# Run in a fresh interpreter without ``site`` (-S), so nothing is loaded
# before ``import cosetposets`` but the interpreter's own start-up modules.
COLD_IMPORT = """
import json, sys
before = set(sys.modules)
import cosetposets
package = set(sys.modules) - before
resolved = {name: getattr(cosetposets, name).__module__
            for name in ("run_suite", "SuiteConfig", "VerificationReport")}
try:
    cosetposets.no_such_name
    unknown = "resolved"
except AttributeError as exc:
    unknown = str(exc)
import cosetposets.suite, cosetposets.cli
print(json.dumps({"package": sorted(package), "resolved": resolved, "unknown": unknown,
                  "full": sorted(set(sys.modules) - before)}))
"""


def test_package_import_loads_no_dataclasses_and_no_suite():
    """``import cosetposets`` leaves out ``dataclasses`` and the verification
    suites, whose names load on first access; the suite and the command
    line load no ``dataclasses`` either."""
    src = Path(__file__).parent.parent / "src"
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-S", "-c", COLD_IMPORT], env=env,
                          capture_output=True, text=True, timeout=60, check=True)
    got = json.loads(proc.stdout)
    assert "cosetposets.perm" in got["package"]
    assert "dataclasses" not in got["package"] and "cosetposets.suite" not in got["package"]
    assert got["resolved"] == dict.fromkeys(
        ("run_suite", "SuiteConfig", "VerificationReport"), "cosetposets.suite")
    assert got["unknown"] == "module 'cosetposets' has no attribute 'no_such_name'"
    assert {"cosetposets.suite", "cosetposets.cli"} <= set(got["full"])
    assert "dataclasses" not in got["full"]
