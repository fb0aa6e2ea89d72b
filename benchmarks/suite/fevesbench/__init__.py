"""The FEVES benchmark suite (driven by ``benchmarks/suite/run.py``)."""
