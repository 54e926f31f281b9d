"""The code-line counter that the change log and the roadmap cite."""

import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "code_lines.py"

MODULE = '''"""A module docstring
over two lines."""

# a comment line
import math   # a trailing comment


class Box:
    """A class docstring."""

    side = 2.0

    def area(self):
        """A method docstring,
        over two lines."""
        text = """a string that is
        not a docstring"""
        return self.side ** 2 + len(text)


def f(x):
    "a one-line docstring"

    return math.sqrt(x)
'''


def test_counts_tokens_and_skips_comments_and_docstrings(tmp_path):
    (tmp_path / "m.py").write_text(MODULE)
    (tmp_path / "n.py").write_text("x = 1\n\n\ny = (x +\n     2)\n")
    done = subprocess.run([sys.executable, str(SCRIPT), str(tmp_path)],
                          capture_output=True, text=True, check=True)
    # m.py: import, class, side =, def area, text = (2 lines), return,
    # def f, return; n.py: x =, y = (2 lines)
    assert done.stdout.split() == ["9", "m.py", "3", "n.py", "12", "total"]


def test_rejects_a_path_that_is_not_a_directory(tmp_path):
    done = subprocess.run([sys.executable, str(SCRIPT), str(tmp_path / "none")],
                          capture_output=True, text=True)
    assert done.returncode == 2 and "usage" in done.stderr
