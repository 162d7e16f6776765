"""``python -m tvo``: the ``tvo`` command line of :mod:`tvo.cli`."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
