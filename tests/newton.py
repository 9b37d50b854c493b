"""The Newton route to the Jordan decomposition over a finite field, the
reference that `springerlab.MatContext.jordan_decomposition`, a
Frobenius power, is checked against; with the radical and the matrix
inverse that it needs, on `linalg`'s kernels and the dense references
of `dense`."""

import dense
from padicwf import liealg as lg
from padicwf import linalg as la


def mat_inv(a, field):
    n = len(a)
    aug = [list(r) + list(e) for r, e in zip(a, la.identity(field, n))]
    rows, pivots, _ = la.rref(aug)
    if pivots != list(range(n)):
        raise ZeroDivisionError("matrix not invertible")
    return tuple(tuple(r[n:]) for r in rows)


def poly_radical(f, field):
    """Product of the distinct irreducible factors of f (monic)."""
    out = [la.fone(field)]
    for g, _ in la.squarefree_decomposition(f, field):
        out = la.poly_mul(out, g, field)
    return out


def jordan_decomposition(X, field):
    """(semisimple, nilpotent) parts, by Newton iteration on the radical
    of the characteristic polynomial."""
    n = len(X)
    f = la.charpoly(X, field)
    f1 = poly_radical(f, field)
    df1 = la.poly_deriv(f1, field)
    s = X
    for _ in range(max(1, n.bit_length() + 1)):
        val = dense.poly_eval_mat(f1, s, field)
        if all(not e for row in val for e in row):
            break
        dinv = mat_inv(dense.poly_eval_mat(df1, s, field), field)
        s = la.mat_sub(s, la.mat_mul(val, dinv))
    val = dense.poly_eval_mat(f1, s, field)
    assert all(not e for row in val for e in row), "Newton did not converge"
    xn = la.mat_sub(X, s)
    assert lg.is_nilpotent(xn)
    assert dense.bracket(s, xn) == la.zero_mat(field, n)
    return s, xn
