"""Golden CLI gate: every CLI command documented in the README, run
in-process through ``distmap.cli.main``, must reproduce the stdout bytes
and exit code recorded in golden_cli.json.

The recording was made from the code before this benchmark existed.  It
keeps the known red row of ``paper-examples`` (the published value 89 for
e_5(Q, alpha(Q)); the code computes 638) and its exit code 1, exactly as
the program printed them.  A change that alters CLI output on purpose must
say so and re-record (``python3 perfbench/gate.py --record``); never edit a
recorded output to make the gate pass.
"""

import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

GOLDEN = Path(__file__).with_name("golden_cli.json")

COMMANDS = [
    ["curve-info", "--name", "ex2-f701"],
    ["curve-info", "--p", "701", "--a4", "-35", "--a6", "98"],
    ["pairing", "--name", "ex2-f701", "--ell", "5", "--A", "224,31",
     "--B", "173,194"],
    ["endo-apply", "--name", "ex2-f701", "--phi", "alpha_701", "--A", "224,31"],
    ["endo-matrix", "--name", "ex2-f701", "--ell", "5", "--phi", "alpha_701",
     "--A", "224,31", "--B", "573,450"],
    ["classify", "--name", "ex4-13", "--ell", "2", "--conductor", "2"],
    ["census", "--name", "ex2-f701", "--ell", "2", "--phi", "alpha_701"],
    ["ddh", "--name", "ex2-f701", "--ell", "5", "--phi", "alpha_701",
     "--triple", "2,3,6"],
    ["paper-examples"],
    ["catalog", "export"],
]


def run_cli(main, argv):
    """(exit code, stdout text) of one in-process CLI call."""
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


def check(main):
    """List of mismatch descriptions; empty when every command matches."""
    golden = json.loads(GOLDEN.read_text())
    if [g["argv"] for g in golden] != COMMANDS:
        return ["golden_cli.json does not list the gate's commands"]
    problems = []
    for g in golden:
        code, out = run_cli(main, g["argv"])
        if code != g["exit"] or out != g["stdout"]:
            problems.append(f"distmap {' '.join(g['argv'])}: exit {code} "
                            f"(golden {g['exit']}), stdout "
                            f"{'matches' if out == g['stdout'] else 'differs'}")
    return problems


def record(main):
    rows = []
    for argv in COMMANDS:
        code, out = run_cli(main, argv)
        rows.append({"argv": argv, "exit": code, "stdout": out})
    GOLDEN.write_text(json.dumps(rows, indent=1) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python3 perfbench/gate.py --record")
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from distmap.cli import main as cli_main

    record(cli_main)
