"""``python -m nleig``: the same command line as the ``nleig`` script."""

from .cli import entry

if __name__ == "__main__":
    entry()
