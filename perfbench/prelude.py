"""Process set-up that must happen before numpy or drbss is imported.

Importing this module pins the BLAS pool to one thread. With one thread
the engine's ms/iter varies about 10% between runs; with two it varies
about 25%, and two threads are not consistently faster.
"""
import os
import sys
from pathlib import Path

BLAS_THREADS = 1

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src"
SCRATCH = ROOT / ".bench_tmp"  # temporary files, inside the checkout
REFERENCE = ROOT / "perfbench" / "reference.json"


def use_checkout_source() -> None:
    """Import drbss from this checkout's ``src``, never from an installed copy.

    Exits with status 2 when the checkout holds no drbss sources.
    """
    if not (SOURCE / "drbss" / "__init__.py").is_file():
        print(f"perfbench: no drbss sources under {SOURCE}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SOURCE))
