"""``python -m ctipipe``: the same command line as the ``ctipipe`` script."""

from .cli import main

if __name__ == "__main__":
    main()
