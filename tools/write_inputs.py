"""Write the input files of a torus cover, as the benchmark generates them.

Run from the repository root:

    python3 tools/write_inputs.py N K {cyclic,symmetric} OUT_DIR [--punctured] [--map]

writes ``OUT_DIR/base.json``, the (punctured with ``--punctured``) N x N
torus, and ``OUT_DIR/voltage.json``, its seam voltages from the pair of
permutations of 1..K that ``perfbench.inputs.cyclic_pair`` or
``full_symmetric_pair`` draws at seed 1.  ``--map`` also writes
``OUT_DIR/map.json``, the vertex map of the derived cover, whose cover
vertex ``v * K + j`` is sheet j over base vertex v.  Every file is
written by ``perfbench.inputs.write_json``.
"""

import argparse
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from perfbench import inputs  # noqa: E402

PAIRS = {"cyclic": inputs.cyclic_pair, "symmetric": inputs.full_symmetric_pair}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("n", type=int, help="torus side")
    parser.add_argument("k", type=int, help="number of sheets")
    parser.add_argument("group", choices=sorted(PAIRS), help="cyclic or full symmetric voltage group")
    parser.add_argument("out", type=Path, help="directory the files are written to")
    parser.add_argument("--punctured", action="store_true", help="remove one triangle of the torus")
    parser.add_argument("--map", action="store_true", help="also write the derived cover's vertex map")
    args = parser.parse_args(argv)
    n, k = args.n, args.k
    facets = inputs.torus_facets(n, punctured=args.punctured)
    pair = PAIRS[args.group](np.random.default_rng(1), k)
    inputs.write_json(args.out / "base.json", inputs.complex_doc(facets))
    inputs.write_json(args.out / "voltage.json", inputs.seam_voltages(n, facets, *pair))
    if args.map:
        inputs.write_json(args.out / "map.json", {"vertex_map": [[v * k + j, v] for v in range(n * n) for j in range(k)]})
    return 0


if __name__ == "__main__":
    sys.exit(main())
