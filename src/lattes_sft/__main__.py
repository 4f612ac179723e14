"""``python -m lattes_sft``: the ``lattes`` command line."""

from .cli import entry

if __name__ == "__main__":
    entry()
