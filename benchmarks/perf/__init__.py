"""The repo's end-to-end benchmark (see README.md in this directory)."""

import os

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
#: Everything a run writes goes under here (git-ignored, inside the checkout).
WORK_DIR = os.path.join(ROOT, ".bench_work")
