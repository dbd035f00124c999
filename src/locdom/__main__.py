"""``python -m locdom``: the same command-line front end as ``locdom``."""

from .cli import entry

if __name__ == "__main__":
    entry()
