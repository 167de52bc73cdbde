"""The pod benchmark: see ``podbench/run.py`` for how to run it."""
