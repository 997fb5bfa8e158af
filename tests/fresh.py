"""A fresh interpreter for checks the suite's own process would spoil.

The test process has imported most of ``repro`` by the time a check
runs, so a question like "which modules does this command load?" or
"does this package's ``__all__`` resolve on its own?" gets the answer
of whatever ran before it.  :func:`fresh_json` asks it in a new
``python`` with this checkout's ``src/`` first on the path.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def fresh_json(code, *args):
    """Run ``python -c code *args`` in a fresh interpreter and return
    the JSON value its last line of stdout holds."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    done = subprocess.run(
        [sys.executable, "-c", code] + list(args),
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])
