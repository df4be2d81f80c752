"""`python -m uniparse`: the command-line interface of uniparse.cli."""

import sys

from .cli import main

sys.exit(main())
