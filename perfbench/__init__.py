"""Layered end-to-end benchmark of the DeepEye engine (see run.py)."""
