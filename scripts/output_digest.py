#!/usr/bin/env python3
"""Print one SHA-256 digest of every output of each benchmark workload.

Builds the default-seed inputs of each WORKLOAD (sweep, long_solve and
convergence; all three if none is named) through perfbench/workloads.py, runs
each of its operations once in a temporary directory, and prints one line
`<workload> <sha256>`.  Every march is recorded by wrapping marcher.march, as
perfbench does.  The digest covers, in run order, each march's times, trace
history and snapshots (their times, steps and node arrays), every
StepDiagnostics field written in hex, the bytes of every CSV an operation
writes (long_solve's trace and snapshot files) and each convergence report's
to_csv().  Two source trees whose lines agree give the same outputs bit for bit.

Usage: PYTHONPATH=src python3 scripts/output_digest.py [WORKLOAD ...]
"""

import dataclasses
import hashlib
import pathlib
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.dont_write_bytecode = True          # perfbench/ is only read
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads                        # noqa: E402
from fracpme import marcher             # noqa: E402


def _hex(value) -> str:
    if isinstance(value, tuple):
        return "(" + ",".join(map(_hex, value)) + ")"
    return float.hex(value) if isinstance(value, float) else hex(value)


def _array(h, a) -> None:
    h.update(repr(a.shape).encode() + a.tobytes())


def snapshot_step(traj, t: float) -> int:
    """The step of the snapshot taken at time t: its index in traj.times."""
    return int(traj.times.searchsorted(t))


def _trajectory(h, traj) -> None:
    _array(h, traj.times)
    _array(h, traj.trace_history)
    for t, values in traj.snapshots:
        h.update(f"{t.hex()} {snapshot_step(traj, t)}".encode())
        _array(h, values)
    for diag in traj.diagnostics:
        h.update(" ".join(_hex(getattr(diag, f.name)) for f in dataclasses.fields(diag)).encode())


def digest(name: str) -> str:
    h = hashlib.sha256()
    recorded, march = [], marcher.march

    def recording(*args, **kwargs):
        recorded.append(march(*args, **kwargs))
        return recorded[-1]

    with tempfile.TemporaryDirectory() as workdir:
        wl = workloads.BUILDERS[name](workloads.DEFAULT_SEED, workdir)
        marcher.march = recording
        try:
            for op in wl.ops:
                out = op.run()
                for traj in recorded:
                    _trajectory(h, traj)
                recorded.clear()
                for path in sorted(pathlib.Path(workdir).glob("*.csv")):
                    h.update(path.name.encode() + path.read_bytes())
                if hasattr(out, "to_csv"):
                    h.update(out.to_csv().encode())
        finally:
            marcher.march = march
    return h.hexdigest()


def main(names) -> int:
    unknown = [n for n in names if n not in workloads.BUILDERS]
    if unknown:
        print(f"unknown workload {unknown[0]!r}; choose from {', '.join(workloads.BUILDERS)}",
              file=sys.stderr)
        return 2
    for name in names or workloads.BUILDERS:
        print(name, digest(name), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
