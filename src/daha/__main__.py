"""``python -m daha``: runs the ``daha`` command, :func:`daha.cli.main`."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
