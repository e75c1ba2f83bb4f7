import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs(scores_csv, monkeypatch):
    # the README's python block, run where it finds its scores.csv
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    monkeypatch.chdir(scores_csv.parent)
    ns = {}
    exec(compile(blocks[0], str(README), "exec"), ns)
    assert ns["scores"].shape == ns["m"].shape == (30, 6)
