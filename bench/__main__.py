"""``python3 -m bench`` — see README.md.

* ``--workload W --seed N --seconds S --trace 0|1`` runs one workload in
  this interpreter and prints the result object as the last line;
* without ``--workload`` every workload runs, each in its own fresh
  interpreter, untraced and (``--trace 1``) traced, and a table is
  printed; ``--repeat R`` makes R such runs on seeds ``N .. N+R-1`` and
  ``--out FILE`` keeps them for ``compare``;
* ``--smoke`` is the same at 1/20 of every population for ~1 s windows;
* ``compare A.json B.json`` judges two kept sets of runs.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# The program is measured from this checkout's source tree, never from an
# installed copy; ROOT itself makes ``bench`` importable under ``python3
# bench/__main__.py`` as under ``-m``.
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from bench.cli import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
