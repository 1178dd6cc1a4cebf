"""Set-up probe, run in a fresh interpreter by run.py.

    python3 setup_probe.py <src dir> <cli argv ...>

Imports latticeopt.cli and makes one solve, then prints one JSON line:
the CPU seconds from just before the import to the end of the solve,
the exit code, the SHA-256 of the solve's stdout, and the CPU seconds of
the calibration kernel (see ``calibrate.py``) timed right after.
"""

import contextlib
import hashlib
import io
import json
import sys
import time


def main() -> None:
    sys.path.insert(0, sys.argv[1])
    out, err = io.StringIO(), io.StringIO()
    started = time.process_time()
    from latticeopt import cli
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(sys.argv[2:])
    seconds = time.process_time() - started
    digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
    # imported only now, so that the modules it loads (fractions) are
    # still part of the timed import of the library
    import calibrate
    print(json.dumps({"seconds": seconds, "rc": rc, "digest": digest,
                      "kernel_s": calibrate.kernel_seconds()}))


if __name__ == "__main__":
    main()
