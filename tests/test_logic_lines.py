"""scripts/logic_lines.py counts code lines without comments, blank lines
or docstrings."""

import importlib.util
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "logic_lines.py"

FIXTURE = '''"""Module docstring,
over two lines."""

import math  # a trailing comment does not hide the code

# a whole-line comment


class Box:
    """Class docstring."""

    size = 2

    def area(self):
        """Method docstring."""
        text = """a multi-line string
        that is not a docstring"""
        return (self.size
                * math.pi)
'''
# counted: import, class, size, def, text (2 lines), return (2 lines)
FIXTURE_LINES = 8


def load():
    spec = importlib.util.spec_from_file_location("logic_lines", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_logic_lines_skip_comments_blanks_and_docstrings():
    assert load().logic_lines(FIXTURE) == FIXTURE_LINES
    assert load().logic_lines("") == 0


def test_the_script_prints_each_file_and_the_total(tmp_path):
    (tmp_path / "a.py").write_text(FIXTURE)
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "b.py").write_text("x = 1\n\n\ny = [\n    2,\n]\n")
    out = subprocess.run([sys.executable, str(SCRIPT), str(tmp_path)], capture_output=True, text=True,
                         check=True, timeout=60).stdout.splitlines()
    assert [line.split()[0] for line in out] == [str(FIXTURE_LINES), "4", str(FIXTURE_LINES + 4)]
    assert out[-1].split()[1] == "total"


def test_a_missing_path_is_a_usage_error(tmp_path):
    run = subprocess.run([sys.executable, str(SCRIPT), str(tmp_path / "absent")], capture_output=True,
                         text=True, timeout=60)
    assert run.returncode == 2 and "no such file or directory" in run.stderr and not run.stdout
