"""Bench worker: imports homforge.cli once, then runs each CLI call in a fork.

Usage: python3 perfbench/worker.py SRC_DIR

The worker prints one JSON line once ``import homforge.cli`` has returned,
then reads one JSON request per line on stdin and answers each with one JSON
line on stdout.  A request is::

    {"argv": [...], "stdout": path, "stderr": path, "trace": bool, "meta": path}

The call runs in a fresh ``os.fork()`` child that calls ``cli.main(argv)``
with stdout and stderr redirected to the given files, so no state survives
from one call to the next.  An uncaught exception exits 1, as the installed
``homforge`` script does.  A real-time timer of LIMIT_S seconds, whose
default action kills the child, bounds every call.  The answer is::

    {"code": exit code or null, "signal": signal number or null,
     "elapsed": seconds from fork to reaped, "maxrss_kb": child's ru_maxrss}

With ``meta`` set, the child also writes the wall time of ``cli.main`` and,
for a traced call, the aggregated spans and counters (see layertrace.py).
Only a traced call imports layertrace, and only inside its own child.
"""

import json
import os
import signal
import sys
import time
import traceback

# A call still running after this many seconds is killed and its op fails.
LIMIT_S = 20.0


def _child(cli, req):
    code = 1
    try:
        for fd, path in ((1, req["stdout"]), (2, req["stderr"])):
            out = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
            os.dup2(out, fd)
            os.close(out)
        sys.stdout = open(1, "w", encoding="utf-8", closefd=False)
        sys.stderr = open(2, "w", encoding="utf-8", closefd=False)
        signal.setitimer(signal.ITIMER_REAL, LIMIT_S)
        recorder = None
        if req.get("trace"):
            import layertrace

            recorder = layertrace.install()
        start = time.perf_counter()
        try:
            code = cli.main(req["argv"])
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except BaseException:
            traceback.print_exc()
            code = 1
        main_s = time.perf_counter() - start
        signal.setitimer(signal.ITIMER_REAL, 0)
        sys.stdout.flush()
        sys.stderr.flush()
        if req.get("meta"):
            meta = {"main_s": main_s}
            if recorder is not None:
                meta.update(recorder.summary())
            with open(req["meta"], "w", encoding="utf-8") as fh:
                json.dump(meta, fh)
    finally:
        os._exit(code)


def run_call(cli, req):
    """Fork, run one CLI call in the child, and reap it; returns the answer dict."""
    start = time.perf_counter()
    pid = os.fork()
    if pid == 0:
        _child(cli, req)
    _, status, usage = os.wait4(pid, 0)
    elapsed = time.perf_counter() - start
    return {
        "code": os.WEXITSTATUS(status) if os.WIFEXITED(status) else None,
        "signal": os.WTERMSIG(status) if os.WIFSIGNALED(status) else None,
        "elapsed": elapsed,
        "maxrss_kb": usage.ru_maxrss,
    }


def main():
    src = os.path.abspath(sys.argv[1])
    sys.path.insert(0, src)
    from homforge import cli

    print(json.dumps({"ready": True, "homforge": cli.__file__}), flush=True)
    for line in sys.stdin:
        answer = run_call(cli, json.loads(line))
        print(json.dumps(answer), flush=True)


if __name__ == "__main__":
    main()
