"""Write perfbench/expected.json: reference outputs the checks compare against.

    PYTHONPATH=src python3 perfbench/make_expected.py

Run it at a commit whose outputs are trusted.  It records the md5 of the
canonical prisoner's dilemma sweep CSV over the 320-point grid and, for the
first REFERENCE_OPS games of the solve-pool workload at REFERENCE_SEED, a
digest of each game and of its `support_enumeration` report.
"""

import hashlib
import json
import shutil
import tempfile
from pathlib import Path

from workloads import EXPECTED_PATH, SolvePool, SweepGrid, game_digest, report_digest

REFERENCE_SEED = 0
REFERENCE_OPS = 2000


def main() -> None:
    workdir = Path(tempfile.mkdtemp(dir=EXPECTED_PATH.parent))
    try:
        sweep = SweepGrid(REFERENCE_SEED, workdir)
        inp = sweep.input(0)
        if sweep.run(inp) != 0:
            raise SystemExit("the canonical sweep failed")
        md5 = hashlib.md5(inp[2].read_bytes()).hexdigest()
        pool = SolvePool(REFERENCE_SEED, workdir)
        reports = {}
        for k in range(REFERENCE_OPS):
            game, report = pool.run(pool.input(k))
            reports[game_digest(game)] = report_digest(report)
    finally:
        shutil.rmtree(workdir)
    data = {
        "canonical_pd_sweep_md5": md5,
        "solve_pool_reference": {"seed": REFERENCE_SEED, "reports": reports},
    }
    EXPECTED_PATH.write_text(json.dumps(data, indent=0) + "\n", encoding="utf-8")
    print(f"wrote {EXPECTED_PATH.name}: sweep md5 {md5}, {len(reports)} solve-pool reports")


if __name__ == "__main__":
    main()
