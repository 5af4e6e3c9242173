"""The README's command-line examples run as written.

Each code block of README.md's "Command-line usage" runs in a fresh
directory, its `$ ...` commands in order through `sh`, with `linetrees` on
PATH as this interpreter's `python -m linetrees.cli`.  A command must exit 0
with nothing on stderr; where the README shows its output, stdout must be
that output, and where the output is cut short by `...`, stdout must start
and end as shown."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import linetrees

README = Path(__file__).resolve().parent.parent / "README.md"


def _examples() -> list[list[tuple[str, list[str]]]]:
    """Per code block of the CLI section, its (command, output lines) pairs."""
    text = README.read_text()
    section = text[text.index("## Command-line usage"):]
    section = section[:section.index("\n## ", 1)]
    blocks = []
    for block in re.findall(r"^```\n(.*?)^```", section, re.M | re.S):
        examples = []
        lines = block.splitlines()
        while lines:
            line = lines.pop(0)
            if not line.startswith("$ "):
                continue
            command = line[2:]
            while command.endswith("\\"):
                command += "\n" + lines.pop(0)
            output = []
            while lines and lines[0] and not lines[0].startswith("$ "):
                output.append(lines.pop(0))
            examples.append((command, output))
        if examples:
            blocks.append(examples)
    return blocks


BLOCKS = _examples()


def test_the_cli_section_has_its_examples():
    commands = [command for block in BLOCKS for command, _ in block]
    assert len(commands) == 15
    assert any("two_cycle.txt" in c and c.startswith("echo") for c in commands)


@pytest.mark.parametrize("block", BLOCKS, ids=[re.search(r"linetrees (\S+)", " ".join(
    command for command, _ in block))[1] for block in BLOCKS])
def test_readme_cli_examples(tmp_path, block):
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    wrapper = bin_dir / "linetrees"
    wrapper.write_text(f'#!/bin/sh\nexec "{sys.executable}" -m linetrees.cli "$@"\n')
    wrapper.chmod(0o755)
    env = {**os.environ, "PATH": f"{bin_dir}{os.pathsep}{os.environ.get('PATH', '')}",
           "PYTHONPATH": str(Path(linetrees.__file__).resolve().parent.parent)}
    for command, output in block:
        proc = subprocess.run(["sh", "-c", command], cwd=tmp_path, env=env,
                              capture_output=True, text=True)
        assert (proc.returncode, proc.stderr) == (0, ""), command
        shown = "\n".join(output)
        if "..." in shown:
            head, tail = shown.split("...")
            assert proc.stdout.startswith(head) and proc.stdout.endswith(tail + "\n"), command
        elif output:
            assert proc.stdout == shown + "\n", command
