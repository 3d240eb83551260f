"""Independent reference implementations that only the tests call."""

import numpy as np


def bareiss_rank(matrix) -> int:
    """Exact rank of an integer matrix by fraction-free elimination.

    Pure-integer Bareiss pivoting; exact for any matrix that fits in
    Python ints, and independent of the floating eigensolver path.
    """
    m = [[int(x) for x in row] for row in np.asarray(matrix)]
    if not m or not m[0]:
        return 0
    n_rows, n_cols = len(m), len(m[0])
    rank = 0
    prev = 1
    for col in range(n_cols):
        piv = next((r for r in range(rank, n_rows) if m[r][col] != 0), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for r in range(rank + 1, n_rows):
            for c in range(col + 1, n_cols):
                m[r][c] = (m[rank][col] * m[r][c] - m[r][col] * m[rank][c]) // prev
            m[r][col] = 0
        prev = m[rank][col]
        rank += 1
        if rank == n_rows:
            break
    return rank
