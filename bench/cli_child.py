"""One CLI invocation with spans around the package's layers.

Usage: python bench/cli_child.py SPANFILE SUBCOMMAND [ARGS...]

The traced counterpart of the benchmark's CLI launcher: it imports the
CLI under a ``cli.import`` span, installs the wrappers of ``spans``,
runs ``cli.run`` under a ``cli.run`` span, writes the spans to SPANFILE
and exits with the CLI's exit code.
"""

import sys

import spans


def main() -> int:
    path, argv = sys.argv[1], sys.argv[2:]
    tracer = spans.Tracer()
    span = tracer.open("cli.import")
    from maxplusprob import cli

    tracer.close(span)
    spans.install(tracer)
    code = cli.run(argv)
    if code != 0:
        tracer.error("cli.run")
    tracer.write(path)
    return code


if __name__ == "__main__":
    sys.exit(main())
