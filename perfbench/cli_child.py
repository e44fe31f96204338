"""Run one `biops` CLI request under the span recorder.

Usage: python cli_child.py SPANS_JSON REQUEST_ID ARG...

Behaves like `python -m biops.cli ARG...` (same stdout, stderr and exit
code) and writes the request's spans to SPANS_JSON when it ends.
"""

import sys

import spans


def main():
    out_path, rid, argv = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
    import biops.cli

    rec = spans.Recorder()
    missing = spans.install(rec)
    if missing:
        print("perfbench: not traced: " + ", ".join(missing), file=sys.stderr)
    rec.begin_request(rid)
    code = 1
    try:
        with rec.span("cli.main"):
            try:
                code = biops.cli.main(argv)
            except SystemExit as exc:  # argparse usage errors
                code = exc.code
    finally:
        sys.stdout.flush()
        rec.write(out_path)
    return code


if __name__ == "__main__":
    sys.exit(main())
