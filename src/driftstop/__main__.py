"""``python -m driftstop``: the command-line interface of ``driftstop.cli``."""

import sys

from .cli import main

sys.exit(main())
