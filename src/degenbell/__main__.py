"""Entry point for `python -m degenbell`; same interface as the degenbell script."""

from .cli import main

if __name__ == "__main__":
    main()
