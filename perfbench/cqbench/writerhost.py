"""The recalibration writer's own process (see :mod:`cqbench.recal`).

Run as ``python -m cqbench.writerhost STORE --port P --control-port C
--seed S --out FILE`` with ``src`` and ``perfbench`` on ``PYTHONPATH``.

The writer runs beside the reads in a process of its own.  As a thread
in the load process it would share that process's interpreter lock, and
read latency would measure the benchmark's own lock convoy instead of
the server: on a 2-CPU container, the same open-loop reads beside the
same writer measured p50 38 ms / p99 822 ms with a writer thread and
2.8 ms / 17 ms with a writer process.

Protocol (JSON lines): the host prints a ready line, then answers each
``{"op": "run", "period_s": P, "seconds": T, "steps": N}`` by running the
next steps of its drift plan and printing a line when they are done.
``{"op": "finish"}`` checks the probes against the scalar oracle off the
clock, pickles what it recorded to ``--out`` and prints a done line.
EOF on stdin ends it.
"""

from __future__ import annotations

import argparse
import json
import pickle
import sys
import time
from typing import Optional, Sequence

from repro.api import CompaqtCompiler, PulseClient, resolve_device
from repro.core import DriftModel

from cqbench import config
from cqbench.control import ControlClient
from cqbench.inputs import drift_plan
from cqbench.load import Ledger
from cqbench.oracle import Oracle
from cqbench.recal import Recalibrator


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("store")
    parser.add_argument("--port", type=int, required=True)
    parser.add_argument("--control-port", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    library = resolve_device(config.DEVICE).pulse_library()
    originals = {(w.gate, tuple(w.qubits)): w for w in library}
    short = [k for k, w in originals.items() if w.n_samples <= config.SHORT_PULSE_SAMPLES]
    long = [k for k, w in originals.items() if w.n_samples > config.SHORT_PULSE_SAMPLES]
    plan = drift_plan([short, long], config.MAX_STEPS, config.KEYS_PER_LENGTH_CLASS, args.seed)
    ledger = Ledger()
    control = ControlClient(args.control_port)
    probe = PulseClient(("127.0.0.1", args.port), timeout=config.CLIENT_TIMEOUT_S)
    recal = Recalibrator(
        args.store,
        originals,
        CompaqtCompiler(window_size=config.WINDOW_SIZE, codec=config.CODEC),
        DriftModel(seed=args.seed),
        control,
        probe.fetch_batch,
        ledger,
        config.COMPACT_EVERY,
    )
    try:
        probe.ping()
        print(json.dumps({"ok": True}), flush=True)
        cursor = 0  # drift steps of the plan started so far
        for line in sys.stdin:
            command = json.loads(line)
            if command["op"] == "run":
                cursor += recal.run(
                    plan[cursor : cursor + command["steps"]],
                    command["period_s"],
                    time.perf_counter() + command["seconds"],
                    first=cursor,
                )
                print(json.dumps({"ok": True, "steps": len(recal.steps)}), flush=True)
                continue
            recal.check_probes(Oracle())
            with open(args.out, "wb") as handle:
                pickle.dump(
                    {
                        "steps": recal.steps,
                        "compactions": recal.compactions,
                        "server_refreshes": recal.server_refreshes,
                        "attempted": dict(ledger.attempted),
                        "failed": dict(ledger.failed),
                    },
                    handle,
                )
            print(json.dumps({"ok": True, "steps": len(recal.steps)}), flush=True)
    finally:
        probe.close()
        control.close()
        recal.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
