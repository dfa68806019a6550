"""One fresh process per benchmark command.

    python3 perfbench/child.py run PEAK_RSS_FILE [--trace SPANS.json RUN_ID] -- <singpde args>
    python3 perfbench/child.py setup CONFIG

``run`` calls the public entry point ``singpde.cli.main`` with the given
arguments and exits with its code; with ``--trace`` it first installs the
span wrappers of ``spans.py`` and writes the spans when the command ends.
On exit it writes the process's peak resident memory in kB (``VmHWM``) to
PEAK_RSS_FILE.  The rusage a parent reads is no substitute: the kernel
carries the parent's own peak across fork and exec into the child's
``ru_maxrss``.
``setup`` only imports ``singpde`` and loads CONFIG with
``RunConfig.from_file``: the set-up every command pays before solving.

The package is not installed and ``python -m singpde.cli`` does nothing, so
``src`` is put on the path here.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def main(argv: list[str]) -> int:
    mode, rest = argv[0], argv[1:]
    if mode == "setup":
        from singpde.config import RunConfig

        RunConfig.from_file(rest[0])
        return 0
    sep = rest.index("--")
    rss_path, options, cli_args = rest[0], rest[1:sep], rest[sep + 1 :]
    import singpde.cli

    tracer = None
    if options:
        if options[0] != "--trace" or len(options) != 3:
            raise SystemExit(f"unknown options {options}")
        from spans import Tracer

        tracer = Tracer(run_id=options[2])
        tracer.install()
    try:
        return singpde.cli.main(cli_args)
    finally:
        if tracer is not None:
            tracer.dump(options[1])
        Path(rss_path).write_text(str(_peak_rss_kb()), encoding="utf-8")


def _peak_rss_kb() -> int:
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
