"""``python -m polymu``: the same command line as the ``polymu`` script."""
import sys

from .cli import main

sys.exit(main())
