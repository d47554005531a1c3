"""Entry point of the ``bestofn`` command and of ``python -m bestofn``.

When numpy loads OpenBLAS, OpenBLAS starts a worker thread per core, and the
worker spins for a while on a core of its own: about 0.1 s of CPU in every
command. No result goes through BLAS (every weighted sum is one of numpy's
own reductions), so :func:`main` asks OpenBLAS for one thread, unless the
caller set ``OPENBLAS_NUM_THREADS`` or numpy is already loaded, before it
imports the CLI. A library import of ``bestofn`` or ``bestofn.cli`` leaves
the environment alone.
"""

import os
import sys


def main(argv=None) -> int:
    if "numpy" not in sys.modules:
        os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    from .cli import main as cli_main

    return cli_main(argv)


if __name__ == "__main__":
    sys.exit(main())
