"""The per-cell sweep CSV writer, kept as the byte-for-byte reference.

``_write_sweep_csv`` below is the writer ``enwit.cli`` used before it
formatted columns in chunks, copied verbatim except that ``detected`` is read
from the recomputed bound, as the chunked writer does; ``tests/test_cli.py``
requires the chunked writer to produce the same bytes.
"""

import numpy as np

CSV_HEADER = "B,T,mean_energy,esep,A,bound_raw,bound_clipped,detected"


def _fmt(x: float, digits: int) -> str:
    return format(float(x), f".{digits}g")


def _write_sweep_csv(path: str, cells: np.recarray, digits: int) -> None:
    """Emit the sweep as CSV with LF endings.

    The bound columns are recomputed from the rounded mean/esep/A columns, so
    the printed table is self-consistent: a reader recomputing bound_raw from
    the file reproduces the column to the last printed digit, and ``detected``
    is true exactly when the printed bound_clipped is positive.
    """
    lines = [CSV_HEADER]
    columns = ("b", "t", "mean_energy", "esep", "normalizer_a")
    for b, t, mean, esep, a in zip(*(cells[c].tolist() for c in columns)):
        mean_s = _fmt(mean, digits)
        esep_s = _fmt(esep, digits)
        a_s = _fmt(a, digits)
        bound = (float(esep_s) - float(mean_s)) / float(a_s)
        lines.append(
            ",".join(
                [
                    _fmt(b, digits),
                    _fmt(t, digits),
                    mean_s,
                    esep_s,
                    a_s,
                    _fmt(bound, digits),
                    _fmt(max(0.0, bound), digits),
                    "true" if bound > 0.0 else "false",
                ]
            )
        )
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")
