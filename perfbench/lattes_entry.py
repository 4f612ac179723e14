"""The ``lattes`` console script, run from the source tree of the checkout
this benchmark sits in: ``python perfbench/lattes_entry.py <args>``."""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from lattes_sft.cli import entry  # noqa: E402

if __name__ == "__main__":
    entry()
