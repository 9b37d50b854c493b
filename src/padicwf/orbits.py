"""Partition combinatorics of nilpotent orbits in classical groups.

Orbits of nilpotent matrices are recorded by partitions (Jordan types).
Type tags: 'A' for GL/U factors (any partition), 'B'/'D' for orthogonal
(even parts must have even multiplicity), 'C' for symplectic (odd parts
must have even multiplicity).  The closure order is dominance.
"""

from functools import lru_cache


def partition(parts):
    parts = tuple(sorted((int(p) for p in parts if int(p) != 0),
                         reverse=True))
    assert all(p > 0 for p in parts), "parts must be positive"
    return parts


def partitions_of(n):
    """All partitions of n, as tuples in decreasing order."""
    return _partitions_of(n)


@lru_cache(maxsize=None)
def _partitions_of(n, maxpart=None):
    if maxpart is None:
        maxpart = n
    if n == 0:
        return ((),)
    out = []
    for first in range(min(n, maxpart), 0, -1):
        for rest in _partitions_of(n - first, first):
            out.append((first,) + rest)
    return tuple(out)


def dominance_leq(lam, mu):
    """lam <= mu in dominance order.  Requires equal sums."""
    lam, mu = partition(lam), partition(mu)
    if sum(lam) != sum(mu):
        raise ValueError("size mismatch: %s vs %s" % (sum(lam), sum(mu)))
    a = b = 0
    for i in range(max(len(lam), len(mu))):
        a += lam[i] if i < len(lam) else 0
        b += mu[i] if i < len(mu) else 0
        if a > b:
            return False
    return True


def dominance_lt(lam, mu):
    return dominance_leq(lam, mu) and partition(lam) != partition(mu)


def is_valid(lam, type_):
    """Whether lam is the Jordan type of a nilpotent in the given type."""
    lam = partition(lam)
    if type_ == "A":
        return True
    from collections import Counter
    cnt = Counter(lam)
    if type_ in ("B", "D"):
        return all(m % 2 == 0 for p, m in cnt.items() if p % 2 == 0)
    if type_ == "C":
        return all(m % 2 == 0 for p, m in cnt.items() if p % 2 == 1)
    raise ValueError("unknown type %r" % type_)


def collapse(lam, type_):
    """Largest valid partition of the given type dominated by lam.

    Computed by brute force over all partitions of the same size; the
    maximum is checked to be unique, which is a theorem for B/C/D.
    """
    lam = partition(lam)
    if type_ == "A" or is_valid(lam, type_):
        return lam
    cands = [mu for mu in partitions_of(sum(lam))
             if is_valid(mu, type_) and dominance_leq(mu, lam)]
    if not cands:
        raise ValueError("no valid type-%s partition of %d" %
                         (type_, sum(lam)))
    best = []
    for mu in cands:
        if all(dominance_leq(nu, mu) for nu in cands):
            best.append(mu)
    assert len(best) == 1, "collapse not unique for %s (%s)" % (lam, type_)
    return best[0]


def pad_add(parts_list):
    """Componentwise sum of partitions, padding with zeros."""
    n = max((len(p) for p in parts_list), default=0)
    out = [0] * n
    for p in parts_list:
        for i, x in enumerate(p):
            out[i] += x
    return partition(out)


def ls_induce(levi_factors, ambient_type, ambient_n):
    """Induced (Richardson-style) orbit label from a Levi.

    levi_factors: list of (type tag, size, partition); 'A' factors are
    GL blocks, a factor with the ambient's own type is the "same form"
    block.  The zero orbit of a size-m block is [1]*m (an empty partition
    is promoted to it).  For B/C/D ambient each GL block appears twice
    (once for the block, once for its pairing mirror); for A-type ambient
    once.  The componentwise (padded) sum is then collapsed to a valid
    ambient partition.
    """
    sizes = 0
    summands = []
    for typ, size, lam in levi_factors:
        lam = partition(lam)
        if not lam:
            lam = partition([1] * size)
        assert sum(lam) == size, "orbit does not fit its factor"
        if typ == "A" and ambient_type in ("B", "C", "D"):
            summands.append(lam)
            summands.append(lam)
            sizes += 2 * size
        else:
            summands.append(lam)
            sizes += size
    if sizes != ambient_n:
        raise ValueError("incompatible levi: blocks cover %d of %d"
                         % (sizes, ambient_n))
    out = pad_add(summands)
    if ambient_type in ("B", "C", "D"):
        out = collapse(out, ambient_type)
    return out


def embed_orbit(factor_partitions, amb_type):
    """Orbit label of a product of factors inside one ambient group.

    The factors sit block-diagonally; the ambient Jordan type is the
    multiset union of parts, collapsed when the ambient type demands it.
    """
    parts = []
    for lam in factor_partitions:
        parts.extend(partition(lam))
    out = partition(parts)
    if amb_type in ("B", "C", "D"):
        out = collapse(out, amb_type)
    return out


def max_antichain(labels):
    """Maximal elements of a set of same-size partitions under dominance."""
    labels = [partition(l) for l in labels]
    uniq = []
    for l in labels:
        if l not in uniq:
            uniq.append(l)
    out = []
    for l in uniq:
        if not any(dominance_lt(l, m) for m in uniq):
            out.append(l)
    return sorted(out, reverse=True)


def dynkin_cocharacter(lam):
    """Weights of the standard cocharacter attached to a Jordan type.

    Each part m contributes the string m-1, m-3, ..., -(m-1); the full
    weight multiset is returned sorted decreasingly.
    """
    weights = []
    for m in partition(lam):
        weights.extend(range(m - 1, -m, -2))
    return tuple(sorted(weights, reverse=True))


def fmt_partition(lam):
    return "[" + ",".join(str(p) for p in lam) + "]"

