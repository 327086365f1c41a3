"""`python -m parabgk`: the command line of parabgk.cli."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
