"""End-to-end and per-layer benchmark of the radixtile command line.

Run it with ``python3 perfbench/run.py``; see README.md in this directory.
"""
