"""The tuple-keyed census levels, kept as the reference for the `bytes`-keyed
ones in `pinclasses._patterns` and `pinclasses.cperm`.

A level maps each one-line tuple to the bitmask of its origin indices.  The
subset walk and the level kernel here are the ones the package ran before
its levels were keyed by `bytes`: each offset shift is a list comprehension
and each sum a tuple concatenation.  `encode` turns such a level into the
package's form, and is the one place the tests encode a key.
"""

from pinclasses._patterns import _steps


def encode(level) -> dict:
    """A level keyed by one-line tuples, keyed as the package keys it."""
    return {bytes(filled): mask for filled, mask in level.items()}


def walk_patterns(spec, n_max: int) -> dict[int, dict]:
    """`_patterns.walk_patterns` on one-line tuples."""
    steps = _steps(spec)
    last_t = len(steps) - 1
    after = list(range(1, last_t + 1)) + [spec.prefix_length + 2]
    start = (1, (1,), 1, True)
    seen = {start}
    stack = [start]
    top = set()
    while stack:
        t, filled, origin, last = stack.pop()
        nxt = after[t]
        node = (nxt, filled, origin, False)
        if node not in seen:
            seen.add(node)
            stack.append(node)
        m = len(filled)
        if m > n_max:
            continue
        (hx, x_in, x_out), (hy, y_in, y_out) = steps[t]
        rx = hx * m + (x_in if last else x_out)
        ry = hy * m + (y_in if last else y_out)
        vals = [v + 1 if v >= ry else v for v in filled]
        vals.insert(rx - 1, ry)
        pattern = (tuple(vals), origin + 1 if rx <= origin else origin)
        if m == n_max:
            top.add(pattern)
            continue
        node = (nxt, *pattern, True)
        if node not in seen:
            seen.add(node)
            stack.append(node)
    out: dict[int, dict] = {k: {} for k in range(n_max + 1)}
    for filled, origin in top.union((filled, origin) for _, filled, origin, _ in seen):
        level = out[len(filled) - 1]
        level[filled] = level.get(filled, 0) | 1 << origin
    return out


def box_sum_level(levels, parts, n: int) -> dict[tuple[int, ...], int]:
    """`cperm.box_sum_level` on one-line tuples, without its `box_sum`
    check.  The left keys may be tuples or `bytes`: every block is rebuilt
    as a tuple, so the result is keyed by tuples either way."""
    found: dict[tuple[int, ...], int] = {}
    for p, pieces in parts.items():
        lefts = levels[n - p] if p <= n else None
        if not lefts or not pieces:
            continue
        shift = n - p
        cuts: dict[int, list] = {}
        for piece in pieces:
            f, ko = piece.filled, piece.origin_index
            vo = f[ko - 1]
            head = tuple([v if v < vo else v + shift for v in f[: ko - 1]])
            tail = tuple([v if v < vo else v + shift for v in f[ko:]])
            cuts.setdefault(vo - 1, []).append((head, tail, ko - 1))
        for offset, ends in cuts.items():
            blocks = [(tuple([v + offset for v in filled]), mask) for filled, mask in lefts.items()]
            for head, tail, before in ends:
                for block, mask in blocks:
                    filled = head + block + tail
                    found[filled] = found.get(filled, 0) | mask << before
    return found
