"""End-to-end benchmark for multirag; run ``python3 perfbench/run.py --help``."""
