import re
import shlex
from pathlib import Path

from benchsel.cli import build_parser

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs(scores_csv, monkeypatch):
    # the README's python block, run where it finds its scores.csv
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    monkeypatch.chdir(scores_csv.parent)
    ns = {}
    exec(compile(blocks[0], str(README), "exec"), ns)
    assert ns["scores"].shape == ns["m"].shape == (30, 6)


def test_cli_examples_parse():
    # every `benchsel ...` command of the CLI section's code block
    section = README.read_text().split("\n## CLI\n", 1)[1]
    block = re.search(r"```\n(.*?)```", section, re.S).group(1)
    lines = block.replace("\\\n", " ").splitlines()
    commands = [shlex.split(line)[1:] for line in lines
                if line.startswith("benchsel ")]
    assert len(commands) == 7
    parser = build_parser()
    for argv in commands:
        args = parser.parse_args(argv)
        assert args.command == argv[0] and args.out == "out/"
