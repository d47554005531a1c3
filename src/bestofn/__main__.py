"""Entry point of the ``bestofn`` command and of ``python -m bestofn``.

When numpy loads OpenBLAS, OpenBLAS starts a worker thread per core, and the
worker spins for a while on a core of its own: about 0.1 s of CPU in every
command. No result goes through BLAS (every weighted sum is one of numpy's
own reductions), so :func:`main` asks OpenBLAS for one thread, unless the
caller set ``OPENBLAS_NUM_THREADS`` or numpy is already loaded, before it
imports the CLI.

The imports create some 22,000 container objects that live as long as the
process. Python's cyclic garbage collector walks them about 35 times while
they load and in four full collections at exit, and frees a few hundred
objects: 25-35 ms of a 0.25 s probe. So :func:`main` pauses collections
while it imports the CLI and the modules of the command that ``argv`` names
(each command loads only the code it runs, the chart code only with
``--svg``), then freezes (:func:`gc.freeze`) everything alive, which takes
it out of the collector's sight, and freezes again after the command.
Objects the command creates are collected as usual, and a caller that had
switched the collector off finds it off afterwards. A library import of
``bestofn`` or ``bestofn.cli`` leaves the environment and the collector
alone.
"""

import gc
import os
import sys


def main(argv=None) -> int:
    if "numpy" not in sys.modules:
        os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    enabled = gc.isenabled()
    gc.disable()
    try:
        from .cli import _preload, main as cli_main

        _preload(sys.argv[1:] if argv is None else argv)
        gc.freeze()
    finally:
        if enabled:
            gc.enable()
    code = cli_main(argv)
    gc.freeze()  # the interpreter's last collections skip everything still alive
    return code


if __name__ == "__main__":
    sys.exit(main())
