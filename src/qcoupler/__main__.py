"""``python -m qcoupler``: the same command line as the ``qcoupler`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
