"""One digest of what the dihedral layer answers on the benchmark's inputs.

Usage, from the repository root::

    python tools/dihedral_digest.py [SRC]

SRC is the directory that holds the ``superelliptic`` package (default:
``src`` of this checkout), so two versions of the package can be compared
on the same inputs: the inputs are seeds 1 and 2, blocks 0-9, of every
workload in ``perfbench/workloads.py``.  For each input the script records
the ``repr`` of the workload's own operation and, for every coefficient or
invariant tuple in it, of ``roundtrip_verify``, ``compute_invariants``,
``field_of_definition`` and both ``reconstruct`` roots (an exception is
recorded as its type and message).  It prints one SHA-256 per workload and
one over all of them (``all:``); two versions give the same results, bit
for bit, exactly when the digests are equal.  A last line (``results:``)
hashes the same records with every note blanked, in ``FieldReport`` reprs
and in the CLI documents' ``"note"`` key, so a reworded note changes
``all:`` and leaves ``results:`` as it was.
"""

from __future__ import annotations

import hashlib
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (1, 2)
BLOCKS = range(10)

#: A note in a FieldReport repr (either quote), and in a CLI JSON document.
REPR_NOTE = re.compile(r"""note=(?:'(?:\\.|[^'\\])*'|"(?:\\.|[^"\\])*")""")
JSON_NOTE = re.compile(r'"note": "(?:\\.|[^"\\])*"')


def _blanked(record: str) -> str:
    """``record`` with the text of every note removed."""
    return JSON_NOTE.sub('"note": ""', REPR_NOTE.sub("note=''", record))


def _outcome(call, *args):
    try:
        return repr(call(*args))
    except Exception as exc:  # the error is part of the answer
        return f"{type(exc).__name__}: {exc}"


def _tuple_records(api, values, n, delta):
    """The four dihedral functions on ``values``, read as a coefficient tuple and as invariants."""
    yield _outcome(api.roundtrip_verify, values, n, delta)
    forward = api.compute_invariants(values, n, delta)
    yield repr(forward)
    for inv in (forward, api.DihedralInvariants(values, n, delta)):
        yield _outcome(api.field_of_definition, inv)
        for root in ("plus", "minus"):
            yield _outcome(api.reconstruct, inv, root)


def _tuples(name, case):
    """(values, n, delta) for each tuple an input of workload ``name`` carries."""
    if name in ("forward_equations", "roundtrip_batch") and case.a:
        yield case.a, case.n, case.delta
    elif name == "inverse_invariants":
        yield case.values, case.n, case.delta


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    src = Path(argv[0]).resolve() if argv else ROOT / "src"
    sys.path[:0] = [str(src), str(ROOT)]
    import superelliptic as api
    import superelliptic.cli  # noqa: F401  (the cli_documents operation calls api.cli.main)

    if Path(api.__file__).resolve().parent != src / "superelliptic":
        raise SystemExit(f"error: imported superelliptic from {api.__file__}, not {src}")
    from perfbench.workloads import WORKLOADS

    total = hashlib.sha256()
    results = hashlib.sha256()
    for name, workload in sorted(WORKLOADS.items()):
        digest = hashlib.sha256()
        count = 0
        for seed in SEEDS:
            for index in BLOCKS:
                for case in workload.block(api, seed, index):
                    records = [_outcome(workload.op, api, case)]
                    for values, n, delta in _tuples(name, case):
                        records.extend(_tuple_records(api, values, n, delta))
                    for record in records:
                        digest.update(record.encode() + b"\n")
                        results.update(_blanked(record).encode() + b"\n")
                    count += len(records)
        print(f"{name}: {count} records, sha256 {digest.hexdigest()}")
        total.update(digest.digest())
    print(f"all: sha256 {total.hexdigest()}")
    print(f"results: sha256 {results.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
