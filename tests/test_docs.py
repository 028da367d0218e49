"""The README's user contract and the public docstrings, checked against the code.

The README's quick start runs as it stands, its tables name exactly the
CLI's subcommands and config rules, and every public name carries the
docstring that describes it.
"""

import ast
import inspect
import itertools
import math
import re
from pathlib import Path

import pytest

import stability_lab as sl
from stability_lab import cli

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def readme_section(heading: str) -> str:
    """The README text from `heading` to the next heading of any level."""
    start = README.index(f"\n{heading}\n")
    following = re.search(r"\n#{1,6} ", README[start + 1 :])
    return README[start : start + 1 + following.start()] if following else README[start:]


def table_keys(header: str) -> list[str]:
    """The backquoted first cells of the README table whose header row starts with `header`."""
    lines = README[README.index(f"\n{header}") + 1 :].splitlines()
    rows = []
    for line in lines[2:]:  # past the header and the |---| row
        if not line.startswith("|"):
            break
        rows.append(re.match(r"\| `([^`]+)` \|", line).group(1))
    return rows


def test_quick_start_runs_and_prints_what_it_says():
    block = re.search(r"```python\n(.*?)```", readme_section("## Library quick start"), re.S)
    tree = ast.parse(block.group(1))
    namespace: dict = {}
    shown = {}
    for statement in tree.body:
        source = ast.get_source_segment(block.group(1), statement)
        if isinstance(statement, ast.Expr):
            expression = ast.Expression(statement.value)
            shown[source] = eval(compile(expression, "README", "eval"), namespace)
        else:
            exec(compile(ast.Module([statement], []), "README", "exec"), namespace)
    assert shown["sl.tv_distance(p, q1)"] == 0.25
    value, event = shown["sl.tv_event_form(p, q1)"]
    assert value == 0.25 and event.symbols == ("a",) and repr(event).endswith("mask=1)")
    assert shown["sl.naf_alpha(p, safes)"] == math.log(2)
    ok, [violation] = shown["sl.is_naf(p, safes, alpha=0.5)"]
    assert not ok and violation[:2] == ("doc1", "a") and violation.log_ratio == math.log(2)
    assert shown["sl.feasibility_alpha(safes)"] == 0.0
    assert shown["sl.coupled_sample(tape, p)"] in ("a", "b")
    tv = 0.25
    assert shown["sl.disagreement_estimate(p, q1, trials=100_000, seed=1)"] <= 2 * tv / (1 + tv)
    assert shown["cfg.k, cfg.m_priv"] == (3170, 3170 * 50)
    assert isinstance(namespace["private_model"], sl.DiscreteDistribution)


def test_config_table_names_every_rule_once():
    fields = table_keys("| field |")
    assert len(fields) == len(set(fields))
    assert set(fields) == set(cli._RULES) | {"alpha_grid"}


def test_subcommand_table_names_every_subcommand_once():
    subcommands = table_keys("| subcommand |")
    assert subcommands == list(cli._SUBCOMMANDS)


def test_subcommand_table_names_the_config_fields_each_reads():
    # run refuses any field outside these, and "seed"
    lines = README[README.index("\n| subcommand |") + 1 :].splitlines()[2:]
    for line in itertools.takewhile(lambda line: line.startswith("|"), lines):
        name, fields = line.split(" | ")[:2]
        _, read = cli._SUBCOMMANDS[name.strip("| `")]
        assert re.findall(r"`([^`]+)`", fields) == list(read), name


@pytest.mark.parametrize("name", sl.__all__)
def test_public_name_has_a_docstring(name):
    obj = getattr(sl, name)
    doc = inspect.getdoc(obj) or ""
    # a dataclass without a docstring gets its signature as one
    assert doc.strip() and not doc.startswith(f"{name}(")
