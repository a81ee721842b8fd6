"""The scripts under scripts/ run end to end on small arguments."""

import os
import subprocess
import sys
from pathlib import Path

from turanhg.core import binom_exact
from turanhg.search import exact_turan

from test_construct import parity_edges_by_sum

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_exact_turan_table():
    header, *rows = run_script("exact_turan_table.py", "--n-max", "7")
    assert header == "n\texact\tparity\tnodes\tseconds"
    assert [row.split("\t")[0] for row in rows] == ["4", "5", "6", "7"]
    for row in rows:
        n, value, _, nodes, _ = row.split("\t")
        r = exact_turan(int(n))
        assert (int(value), int(nodes)) == (r.value, r.nodes)


def test_tstar_scan():
    # every row against a scan of every feasible shift by the binomial sum
    header, *rows = run_script("tstar_scan.py", "--k", "2", "--n-max", "60")
    assert header == "n\ttwo_t\tmax_edges\thalf_deficit"
    want = []
    for n in range(4, 61):
        counts = {
            tt: parity_edges_by_sum((n + tt) // 2, (n - tt) // 2, 2) for tt in range(-n, n + 1, 2)
        }
        best = max(counts.values())
        shifts = ",".join(str(tt) for tt, b in counts.items() if b == best and tt >= 0)
        want.append(f"{n}\t{shifts}\t{best}\t{binom_exact(n, 4) - 2 * best}")
    assert rows == want


def test_sidorenko_density():
    header, *rows = run_script("sidorenko_density.py", "--p-max", "2", "--doublings", "2")
    assert header == "p\tn\tedges\tdensity\tgap_to_limit"
    assert len(rows) == 4 and all(len(row.split("\t")) == 5 for row in rows)
