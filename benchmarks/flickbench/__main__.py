"""``python -m benchmarks.flickbench``: same command line as ``run.py``."""

import sys

from benchmarks.flickbench.run import main

sys.exit(main())
