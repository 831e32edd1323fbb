"""README.md's examples run, and its config schema names the CLI's fields."""

import re
from pathlib import Path

from pathlq.cli import CONFIG_FIELDS
from pathlq.ledger import RECORD_FIELDS

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text()


def test_the_python_examples_run_in_order():
    # The second example reuses the first one's spec, params and plan.
    blocks = re.findall(r"```python\n(.*?)```", README, re.DOTALL)
    assert len(blocks) == 2
    namespace = {}
    for block in blocks:
        exec(compile(block, "README.md", "exec"), namespace)


def test_the_config_schema_lists_exactly_the_accepted_fields():
    schema = re.search(r"### Config schema.*?```jsonc\n(.*?)```", README, re.DOTALL)
    lines = schema.group(1).splitlines()
    top = [m.group(1) for line in lines if (m := re.match(r'  "(\w+)":', line))]
    records = [re.findall(r'"(\w+)":', line) for line in lines
               if line.startswith("    {")]
    assert sorted(top) == sorted(CONFIG_FIELDS)
    assert records and all(sorted(r) == sorted(RECORD_FIELDS) for r in records)


def test_the_layout_table_has_one_row_per_module():
    table = re.search(r"## Layout\n(.*?)\n## ", README, re.DOTALL).group(1)
    rows = re.findall(r"^\| `pathlq\.(\w+)` \|", table, re.MULTILINE)
    modules = [p.stem for p in (ROOT / "src" / "pathlq").glob("*.py")
               if p.stem != "__init__"]
    assert sorted(rows) == sorted(modules)
