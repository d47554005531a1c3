"""Fixed reference work that the benchmark times next to every command.

    python perfbench/reference.py

The host's speed drifts by a quarter or more over minutes, so one command's
time varies between runs more than a change worth catching. The benchmark
therefore reports a command's median wall and CPU time as multiples of
this script's medians in the same run. It imports the third-party modules
the CLI imports, numpy and scipy.special, and nothing of bestofn, so a
change to the package cannot move it. In trials, import work followed the
host's drift more closely than a compute loop did.
"""
import numpy  # noqa: F401
import scipy.special  # noqa: F401
