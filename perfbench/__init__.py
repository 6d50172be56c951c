"""End-to-end and per-layer benchmark of the MCM-GPU simulator (see run.py)."""
