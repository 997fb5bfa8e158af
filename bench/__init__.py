"""The performance benchmark of the METRO reproduction (see README.md).

Everything here measures ``repro`` from outside, through its public
functions.  The benchmark runs from a bare checkout in which ``repro``
is not installed, so importing this package puts the checkout's
``src/`` on ``sys.path``.
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

if SRC not in sys.path:
    sys.path.insert(0, SRC)
