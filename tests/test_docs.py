"""README statements that restate code: they must stay true."""
import json
import re
from pathlib import Path

from orliczforms.cli import PHI_SPECS
from orliczforms.config import DEFAULT_CONFIG
from orliczforms.corpus import named_form

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def _section(title: str) -> str:
    return README.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def test_readme_config_defaults_and_form_specs():
    defaults = re.search(r"```json\n(.*?)```", _section("Config file"), re.S)
    assert json.loads(defaults.group(1)) == DEFAULT_CONFIG
    table = _section("CLI").split("Form specs accepted by `--form`", 1)[1]
    specs = re.findall(r"^\| `([^`]+)` \|", table, re.M)
    assert {"zero", "corpus:radial-1form"} <= set(specs)  # first and last row
    for spec in specs:
        named_form(spec, 2)


def test_readme_young_specs_are_the_cli_spellings():
    line = _section("CLI").split("Young-function specs:", 1)[1].split("\n", 1)[0]
    assert ", ".join(re.findall(r"`([^`]+)`", line)) == PHI_SPECS
