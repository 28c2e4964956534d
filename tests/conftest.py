"""Shared test settings: one reproducible hypothesis profile for every property test.

The command-line tests start `python -m opquant` in a subprocess; the
package directory under test goes first on its PYTHONPATH, so a plain
`pytest` from a checkout tests the checkout.
"""

import os
from pathlib import Path

from hypothesis import settings

import opquant

_SRC = str(Path(opquant.__file__).resolve().parents[1])
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))

settings.register_profile("opquant", derandomize=True, database=None, deadline=None)
settings.load_profile("opquant")
