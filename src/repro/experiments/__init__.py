"""Experiment harness: one runner per table/figure of the paper.

Every module exposes a ``run_*`` function returning plain data structures
(lists of row dicts). ``reproduce.PAPER`` is the one table of the paper's
records, their runner calls and the paper's claims about them;
``python -m repro reproduce`` and ``benchmarks/bench_paper.py`` both run
it, and ``python -m repro report --markdown`` renders it. See DESIGN.md's
per-experiment index for the mapping.
"""
