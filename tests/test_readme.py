"""The README's "Command line" section names the config keys, defaults and flags the CLI has,
and its "Library tour" calls only functions the package has."""

import argparse
import json
import re
from pathlib import Path

from npiv import basis, cli, estimator, selection, simulate

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
FLAG = re.compile(r"(?<![\w-])--[a-z][a-z-]*")
SPAN = re.compile(r"`(?:npiv )?(simulate|estimate|select|oracle|rate-study)\b([^`]*)`")
CALL = re.compile(r"(?<![\w.])([A-Za-z_]\w*)\(")
MODULES = (basis, estimator, selection, simulate, cli)


def _section(title: str) -> str:
    """The text under ``## title``, up to the next heading of that level."""
    return README.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def config_table(text: str) -> dict:
    """{section: {key: default}} from the five-column config table; a default is the JSON
    value in the first code span of its cell, or None when the cell has none."""
    table, section = {}, None
    for line in text.splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if not line.startswith("|") or len(cells) != 5 or cells[0] in ("section", "---"):
            continue
        section = cells[0].strip("`") or section
        default = re.match(r"`([^`]*)`", cells[3])
        table.setdefault(section, {})[cells[1].strip("`")] = json.loads(default[1]) if default else None
    return table


def command_flags() -> dict:
    """{command: its flags}, with None for the flags of the top-level parser."""
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {name: {opt for a in p._actions for opt in a.option_strings}
            for name, p in [(None, parser), *sub.choices.items()]}


def named_flags(text: str) -> list:
    """(command, flag) for each flag the text names.  A code span that starts with a command,
    as in `npiv select ...` or `oracle --k-max`, names that command's flags; so does the rest
    of a bullet that starts with `npiv CMD`, up to the next line that is not indented.
    Elsewhere the command is None."""
    named, command = [], None
    for line in text.splitlines():
        bullet = re.match(r"- `npiv ([a-z-]+)", line)
        if bullet or (line and not line.startswith(" ")):
            command = bullet[1] if bullet else None
        for span in SPAN.finditer(line):
            named += [(span[1], flag) for flag in FLAG.findall(span[2])]
        named += [(command, flag) for flag in FLAG.findall(SPAN.sub("", line))]
    return named


def called_names(text: str) -> set:
    """Each bare name, not an attribute, written as a call inside an inline code span of
    ``text``; fenced code blocks are left out."""
    spans = re.findall(r"`([^`]*)`", re.sub(r"```.*?```", "", text, flags=re.S))
    return {name for span in spans for name in CALL.findall(span)}


def test_the_config_table_lists_each_key_with_its_default():
    expected = {section: {key: default for key, (_, default, _) in keys.items()}
                for section, keys in cli._SECTION_KEYS.items()}
    assert config_table(_section("Command line")) == expected


def test_each_flag_the_command_line_section_names_exists():
    flags = command_flags()
    every = set().union(*flags.values())
    named = named_flags(_section("Command line"))
    assert {command for command, _ in named} >= {"simulate", "estimate", "select", "oracle", "rate-study"}
    missing = [(command, flag) for command, flag in named if flag not in (flags[command] if command else every)]
    assert missing == []


def test_a_stale_key_or_flag_is_caught():
    # the checks above fail on a key or default the code lacks and on a flag its command lacks
    table = config_table(_section("Command line"))
    stale = "\n".join(["| section | key | type | default | range |", "|---|---|---|---|---|",
                       '| `structural` | `profile` | string | `"power_law"` | |',
                       "| `study` | `seed` | integer | `1` | >= 0 |"])
    assert config_table(stale) == {"structural": {"profile": "power_law"}, "study": {"seed": 1}}
    assert "profile" not in table["structural"] and table["study"]["seed"] == 0
    text = "\n".join(["- `npiv rate-study CONFIG --seed 3` runs", "  a study with `--n-grid 1,2`.",
                      "Then `--jobs` and `simulate --n`."])
    assert named_flags(text) == [("rate-study", "--seed"), ("rate-study", "--n-grid"), ("simulate", "--n"),
                                 (None, "--jobs")]
    flags = command_flags()
    assert "--seed" not in flags["rate-study"] and "--n-grid" not in flags["rate-study"]


def test_each_call_the_library_tour_writes_exists():
    called = called_names(_section("Library tour"))
    assert {"empirical_moments", "evaluate_coeffs", "select_block"} <= called
    assert [name for name in sorted(called) if not any(hasattr(m, name) for m in MODULES)] == []


def test_a_removed_call_is_caught():
    text = "`empirical_operator_matrix(s, k)` and `seq.values(k)`, then\n```\nprint(x)\n```"
    assert called_names(text) == {"empirical_operator_matrix"}
    assert not any(hasattr(m, "empirical_operator_matrix") for m in MODULES)
