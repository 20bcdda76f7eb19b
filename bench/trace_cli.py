"""Run one ``leibniz-deform`` command with its public functions traced.

Usage: python3 bench/trace_cli.py TRACE_FILE CLI_ARGS...

Standard output and the exit status are the command's own; the spans and
cache statistics go to TRACE_FILE as JSON.
"""

import sys

import tracing


def main() -> int:
    trace_file, argv = sys.argv[1], sys.argv[2:]
    recorder = tracing.Recorder()
    originals = tracing.install(recorder)
    from leibniz_deform.cli import run

    code = run(argv)
    sys.stdout.flush()
    tracing.write_trace(trace_file, recorder.spans, tracing.cache_stats(originals))
    return code


if __name__ == "__main__":
    sys.exit(main())
