"""End-to-end and per-layer benchmark of stabcert; run ``perfbench/run.py``."""
