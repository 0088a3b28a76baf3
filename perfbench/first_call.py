#!/usr/bin/env python3
"""Set-up probe: import the package, build the model, make one small call.

    python3 perfbench/first_call.py <workload> <seed>

``run.py`` times this whole process; it prints the small call's output.
"""

import json
import sys
from pathlib import Path

from workloads import MODEL, WORKLOADS, seed_config

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from jumpmc import build_model, controller  # noqa: E402

workload = WORKLOADS[sys.argv[1]]
model = build_model(MODEL)
out = workload.call(
    controller, model, seed_config(int(sys.argv[2])), workload.tiny_tol, True,
    workload.workers,
)
problems = workload.check(out, True)
print(json.dumps({"estimate": out.estimate, "problems": problems}))
sys.exit(1 if problems else 0)
