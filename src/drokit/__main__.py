"""``python -m drokit``: the same command line as the ``drokit`` script."""

import sys

from . import cli

sys.exit(cli.main())
