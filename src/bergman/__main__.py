"""``python -m bergman``: the same command line as the ``bergman`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
