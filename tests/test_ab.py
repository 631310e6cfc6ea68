"""``tests/ab.py`` run A/A on a two-input pool: one worker process per
role even when both roles name one tree, the same digests, and a ratio."""

import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

POOL = '''
def pool(workload):
    assert workload == "pair"
    return {argv: None for argv in (
        ("nice", "--poset", "b3:3", "--witness", "--json"),
        ("nice", "--poset", "prod:3x2", "--witness", "--json"),
    )}
'''


@pytest.mark.parametrize("call", ["cli.main", "nice.is_nice"])
def test_ab_runs_a_against_a_in_two_processes(tmp_path, call):
    tree = tmp_path / "tree"
    (tree / "perfbench").mkdir(parents=True)
    (tree / "perfbench" / "workloads.py").write_text(POOL)
    (tree / "src").symlink_to(ROOT / "src")
    run = subprocess.run(
        [sys.executable, str(ROOT / "tests" / "ab.py"), str(tree), str(tree),
         "--call", call, "--pool", "pair", "--rounds", "2"],
        capture_output=True, text=True, timeout=60,
    )
    assert run.returncode == 0, run.stderr
    pids = re.findall(r"^(base|change): pid (\d+)", run.stdout, re.M)
    assert [role for role, _ in pids] == ["base", "change"]
    assert len({pid for _, pid in pids}) == 2
    assert f"{call} over 2 inputs of pair, 2 rounds" in run.stdout
    assert re.search(r"^change/base: median \d+\.\d{3} \(quartiles ", run.stdout, re.M)
    assert "digests agree in every round: yes" in run.stdout


def test_ab_times_a_method_on_posets_named_by_spec():
    script = [sys.executable, str(ROOT / "tests" / "ab.py"), str(ROOT), str(ROOT)]
    run = subprocess.run(
        script + ["--call", "posets.Poset.chain_shape", "--spec", "bool:3",
                  "--spec", "prod:3x2", "--rounds", "2"],
        capture_output=True, text=True, timeout=60,
    )
    assert run.returncode == 0, run.stderr
    assert "posets.Poset.chain_shape over 2 inputs of bool:3 prod:3x2, 2 rounds" in run.stdout
    assert "digests agree in every round: yes" in run.stdout
    refused = subprocess.run(script + ["--call", "cli.main", "--spec", "bool:3"],
                             capture_output=True, text=True, timeout=60)
    assert refused.returncode == 2
    assert "--spec needs a library call" in refused.stderr
