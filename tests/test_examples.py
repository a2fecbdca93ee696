"""Every shipped example runs to completion as a script (smoke + output checks)."""

import os
import subprocess
import sys


EXAMPLES = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "examples"))
SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "src"))


def run_example(name, tmp_path):
    """Run ``examples/<name>`` in its own interpreter, in *tmp_path*
    (examples may write artifacts); it must exit 0."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, os.path.join(EXAMPLES, name)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


class TestExamples:
    def test_every_example_is_run_here(self):
        shipped = {n for n in os.listdir(EXAMPLES) if n.endswith(".py")}
        tested = {
            name[len("test_"):] + ".py"
            for name in dir(self)
            if name.startswith("test_") and name != "test_every_example_is_run_here"
        }
        assert shipped == tested

    def test_quickstart(self, tmp_path):
        out = run_example("quickstart.py", tmp_path)
        assert "IND-Discovery" in out
        assert "Ass-Dept[dep] << Department[dep]" in out
        assert "figure1.dot" in out
        assert (tmp_path / "figure1.dot").exists()

    def test_legacy_payroll(self, tmp_path):
        out = run_example("legacy_payroll.py", tmp_path)
        assert "grade(*grade_code" in out
        assert "grade_label='junior'" in out

    def test_synthetic_recovery(self, tmp_path):
        out = run_example("synthetic_recovery.py", tmp_path)
        assert "recovery scores vs ground truth" in out
        assert "schema recovery" in out

    def test_migration(self, tmp_path):
        out = run_example("migration.py", tmp_path)
        assert "referential constraints violated after replay: 0" in out
        assert "RIC matches:     True" in out
