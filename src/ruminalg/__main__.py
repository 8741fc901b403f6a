"""Entry point for ``python -m ruminalg``: the same command line as ``ruminalg``."""

import sys

from .cli import main

sys.exit(main())
