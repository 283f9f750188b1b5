"""``python -m wsforge``: the command-line driver, as the ``wsforge`` script runs it."""

from .cli import entry

if __name__ == "__main__":
    entry()
