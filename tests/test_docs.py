"""README statements that restate code: they must stay true."""
import json
import re
from pathlib import Path

from orliczforms.cli import PHI_SPECS
from orliczforms.config import DEFAULT_CONFIG
from orliczforms.corpus import named_form
from orliczforms.weights import WEIGHT_FAMILIES

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


def test_readme_weight_families_are_the_table():
    table = _section("Config file").split("Weight families", 1)[1]
    table = table.split("| --- | --- |\n", 1)[1].split("\n\n", 1)[0]
    rows = re.findall(r"^\| `(\w+)` \| (.*) \|$", table, re.M)
    assert {name: re.findall(r"`(\w+)`:", keys) for name, keys in rows} == {
        name: list(keys) for name, (keys, _) in WEIGHT_FAMILIES.items()}
    assert [name for name, _ in rows] == list(WEIGHT_FAMILIES)
