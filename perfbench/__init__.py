"""Outside-in performance benchmark for the PolyFrame reproduction.

Run ``python3 perfbench/run.py --help``; see ``perfbench/README.md``.
"""
