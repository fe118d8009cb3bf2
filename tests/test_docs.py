"""README's variant table, CLI examples and layout stay in step with the code."""
import re
from pathlib import Path

from seqrec.configs import VARIANTS

from helpers import subcommands

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")


def _section(title: str) -> str:
    return README.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def test_variant_table_lists_the_ladder_in_order():
    rows = re.findall(r"^\| `(\w+)` \|", _section("Model variants"), re.M)
    assert rows == list(VARIANTS)


def test_cli_block_shows_every_subcommand():
    block = _section("CLI").split("```bash\n", 1)[1].split("```", 1)[0]
    assert set(re.findall(r"^seqrec ([\w-]+)", block, re.M)) == set(subcommands())


def test_layout_block_names_every_module():
    block = _section("Layout").split("```\n", 1)[1].split("```", 1)[0]
    modules = {p.name for p in (ROOT / "src" / "seqrec").glob("*.py")} - {"__init__.py"}
    assert set(re.findall(r"^  (\w+\.py) ", block, re.M)) == modules
