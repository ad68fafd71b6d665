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

CLI_IMPORT = """
import json, sys
import cosetposets.cli
print(json.dumps(sorted(sys.modules)))
"""


def _cold_run(script: str):
    """The JSON that ``script`` prints, run in a fresh interpreter without
    ``site`` that imports the package from this checkout's ``src``."""
    src = Path(__file__).parent.parent / "src"
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-S", "-c", script], env=env,
                          capture_output=True, text=True, timeout=60, check=True)
    return json.loads(proc.stdout)


def test_package_import_loads_no_dataclasses_and_no_suite():
    """``import cosetposets`` leaves out ``dataclasses`` and the verification
    suites, whose names load on first access; the suite and the command
    line load no ``dataclasses`` either."""
    got = _cold_run(COLD_IMPORT)
    assert "cosetposets.perm" in got["package"]
    assert "dataclasses" not in got["package"] and "cosetposets.suite" not in got["package"]
    assert got["resolved"] == dict.fromkeys(
        ("run_suite", "SuiteConfig", "VerificationReport"), "cosetposets.suite")
    assert got["unknown"] == "module 'cosetposets' has no attribute 'no_such_name'"
    assert {"cosetposets.suite", "cosetposets.cli"} <= set(got["full"])
    assert "dataclasses" not in got["full"]


def test_cli_import_loads_no_suite():
    """The command line loads the verification suites only to verify, so a
    ``compute`` command never imports them."""
    loaded = _cold_run(CLI_IMPORT)
    assert "cosetposets.cli" in loaded
    assert "cosetposets.suite" not in loaded and "cosetposets.a7" not in loaded
