"""``python -m matproc``: the same entry point as the ``matproc`` command."""

from .cli import main

if __name__ == "__main__":
    main()
