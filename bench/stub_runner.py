"""Stand-in fine-tuning command for ``dataeff run --runner "exec:..."``.

Called as ``python3 bench/stub_runner.py MANIFEST.json``, it reads the
manifest, echoes its ``run_id`` and seed, and prints a RunResult whose exact
match lies on the truth curve ``a / k**b + c`` plus a small offset keyed by
the run id. The output is a pure function of the manifest, so ledgers are
byte-identical across repetitions and the fitted curve can be checked
against the truth. It imports nothing from ``dataeff``.
"""

from __future__ import annotations

import json
import sys
import zlib
from pathlib import Path

TRUTH = (-27.26, 0.35, 97.79)
OFFSET = 0.3  # half-width of the per-run offset, in EM points


def stub_exact_match(run_id: str, subset_percent: float) -> float:
    a, b, c = TRUTH
    if subset_percent == 0:
        return 0.0
    offset = OFFSET * (2.0 * zlib.crc32(run_id.encode("utf-8")) / 2 ** 32 - 1.0)
    return min(max(a / subset_percent ** b + c + offset, 0.0), 100.0)


def main(argv: list[str]) -> int:
    manifest = json.loads(Path(argv[1]).read_text(encoding="utf-8"))
    run_id = manifest["run_id"]
    result = {
        "run_id": run_id,
        "exact_match": stub_exact_match(run_id, manifest["subset_percent"]),
        "seed": manifest["subset"]["seed"],
        "wall_time": 0.0,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
