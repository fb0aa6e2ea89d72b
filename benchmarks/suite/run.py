#!/usr/bin/env python3
"""Entry point of the benchmark suite; see README.md beside this file."""

import sys

from fevesbench.cli import main

if __name__ == "__main__":
    sys.exit(main())
