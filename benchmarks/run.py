"""Run one difint benchmark workload; see ``difbench/main.py`` and README.md."""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from difbench.main import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
