"""python -m dcmkit: the command-line front end (see dcmkit.cli)."""

import sys

from .cli import main

sys.exit(main())
