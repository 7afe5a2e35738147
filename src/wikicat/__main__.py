"""``python -m wikicat``: the same command line as the ``wikicat`` script."""

import sys

from .cli import main

sys.exit(main())
