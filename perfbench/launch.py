"""One ``python -m tailclip.cli ARGS`` call that also notes when its set-up ends.

    PERFBENCH_SETUP_MARK=mark.txt python3 perfbench/launch.py run configs/smoke.cfg

Runs ``tailclip.cli.main(ARGS)`` unchanged and writes ``time.perf_counter()``
(the system-wide monotonic clock) to the file named by
``PERFBENCH_SETUP_MARK`` at the end of set-up: for ``run``, when the config
is loaded, validated and the problem built, just before the schedule's first
calibration draw; for every other subcommand, when its arguments are parsed
and its command starts. The benchmark subtracts the time it spawned the
process, so set-up includes the interpreter start and ``import tailclip``.
"""

import os
import sys
import time

import tailclip.cli as cli
from tailclip import runner

MARK = os.environ["PERFBENCH_SETUP_MARK"]
_marked_once = []


def _mark() -> None:
    if not _marked_once:
        _marked_once.append(True)
        with open(MARK, "w", encoding="utf-8") as fh:
            fh.write(repr(time.perf_counter()))


def _marked(fn):
    def call(*args, **kwargs):
        _mark()
        return fn(*args, **kwargs)

    return call


def main(argv: list[str]) -> int:
    # build_parser() looks the cmd_* functions up when main() calls it, and
    # run_experiment looks up build_schedule when it calls it.
    runner.build_schedule = _marked(runner.build_schedule)
    for name in dir(cli):
        if name.startswith("cmd_") and name != "cmd_run":
            setattr(cli, name, _marked(getattr(cli, name)))
    return cli.main(argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
