"""`python -m coinflip`: the same CLI as the installed `coinflip` command."""

import sys

from coinflip.cli import main

if __name__ == "__main__":
    sys.exit(main())
