#!/usr/bin/env python3
"""Recompute every results table and the coalition constants, printing them
4-decimal formatted; pass --csv DIR to also write 6-decimal CSV files."""

import argparse
import pathlib
import sys

from showdown.cli import main as cli_main


def run(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--csv", metavar="DIR", help="also write CSV files here")
    args = parser.parse_args(argv)

    for table_id in (1, 2, 4, 5):
        print(f"== table {table_id} ==")
        code = cli_main(["table", "--id", str(table_id)])
        if code != 0:
            return code
        print()
    for pair in (12, 13):
        print(f"== coalition {pair} ==")
        code = cli_main(["coalition", "--pair", str(pair)])
        if code != 0:
            return code
        print()

    if args.csv:
        out = pathlib.Path(args.csv)
        out.mkdir(parents=True, exist_ok=True)
        import contextlib
        import io

        for table_id in (1, 2, 4, 5):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli_main(["table", "--id", str(table_id), "--format", "csv"])
            if code != 0:
                return code
            (out / f"table{table_id}.csv").write_text(buf.getvalue())
        print(f"CSV files written to {out}/")
    return 0


if __name__ == "__main__":
    sys.exit(run())
