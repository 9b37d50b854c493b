"""Acceptance gate: one test per shipped guarantee, one pass/fail line
each under pytest -v.  Each test prints a summary line; a failing test's
output carries the computed-vs-expected analysis.
"""

import random
import time
from fractions import Fraction as Fr
from itertools import product

import numpy as np

import goldens
from padicwf import building as bd
from padicwf import graph as gr
from padicwf import liealg as lg
from padicwf import linalg as la
from padicwf import mpquotient as mpq
from padicwf import orbits as ob
from padicwf import springerlab as sl
from padicwf import wavefront as wf
from padicwf import cli

from test_building import plane_of


def report(num, ok, detail):
    print("criterion %d: %s — %s" % (num, "PASS" if ok else "FAIL",
                                     detail))
    assert ok, detail


# -- 1: rank-6 unitary reproduction --------------------------------------


def test_criterion_1_u6_exact_wavefront():
    t0 = time.monotonic()
    res = wf.u6_example()
    elapsed = time.monotonic() - t0
    ok = (res.labels == ((4, 1, 1), (3, 3))
          and not res.is_upper_bound
          and res.provenance[(4, 1, 1)] == ["y"]
          and res.provenance[(3, 3)] == ["z"]
          and res.provenance[(3, 1, 1, 1)] == ["alcove"]
          and elapsed <= 60)
    report(1, ok, "labels %s, provenance %s, %.1fs"
           % ([ob.fmt_partition(l) for l in res.labels],
              {ob.fmt_partition(k): v for k, v in res.provenance.items()},
              elapsed))


# -- 2: rank-7 curve dichotomy -------------------------------------------


def test_criterion_2_curve_dichotomy():
    t0 = time.monotonic()
    plain = sl.curve_count(3, 23)
    prime = sl.curve_count(1, 23)
    elapsed = time.monotonic() - t0
    ok = (plain == 0 and prime >= 1
          and plain == goldens.CURVE_COUNT_Q23[3]
          and prime == goldens.CURVE_COUNT_Q23[1]
          and elapsed <= 600)
    report(2, ok, "coeff 3 -> %d, coeff 1 -> %d (frozen golden %s), "
           "%.1fs" % (plain, prime, goldens.CURVE_COUNT_Q23, elapsed))


# -- 3: rank-7 pipeline --------------------------------------------------


def test_criterion_3_u7_pipeline():
    plain = wf.u7_example("plain")
    prime = wf.u7_example("prime")
    labels_ok = (plain.labels == ((5, 2),) and plain.is_upper_bound
                 and (6, 1) in prime.labels
                 and ob.dominance_lt(plain.labels[0], prime.labels[0]))
    assert labels_ok, "u7 label dichotomy broken: %s vs %s" % (
        plain.labels, prime.labels)
    discrepancy_reported = any("12 edges" in n and "10 edges" in n
                               for n in plain.notes)
    assert discrepancy_reported

    m = bd.u7_h_model(23)
    E = m.field
    c = [[E.zero() for _ in range(7)] for _ in range(7)]
    for i, j in ((2, 1), (4, 2), (5, 4)):
        c[i][j] = E.uniformizer()
    win = bd.Window(((Fr(0), Fr(1)), (Fr(0), Fr(1))), Fr(-1), Fr(1))
    z = (Fr(3, 4), Fr(1, 4))
    f0 = bd.facet_of(m, win, z, Fr(0))
    edges = gr.path_trace(gr.GraphVertex(m, f0, c), Fr(1, 2))

    # Certifier, independent of the walk's step rule and facet choice.
    # The lifted h of the chain has weights (0, -3, -1, 0, 1, 3, 0) and
    # the coset is transported unchanged, so the cocharacter is
    # lam = (-3, -1) at every step: the walk is the line
    # x(s) = z + s lam, r(s) = 2s, reaching depth 1/2 at s = 1/4.
    lam, slope, s_end = (Fr(-3), Fr(-1)), Fr(2), Fr(1, 4)

    def at(s):
        return tuple(zi + s * li for zi, li in zip(z, lam)), slope * s

    # On the line, r - f(x) = (slope - coeffs . lam) s - f(z); a plane
    # with zero slope term is parallel to the line or contains it (the
    # two planes r = 1/2 - x0 + x1 and r = 1/2 - 2 x1 do), so never
    # crossed.
    breaks = set()
    for form in bd.critical_hyperplanes(m, win):
        coeffs, const = plane_of(form)
        den = slope - sum(a * l for a, l in zip(coeffs, lam))
        if den:
            fz = const + sum(a * zi for a, zi in zip(coeffs, z))
            s = fz / den
            if 0 < s <= s_end:
                breaks.add(s)
    breaks = sorted(breaks)

    stops = [gr.facet_center(e.dst.facet) for e in edges if e.rule == 1]
    centres = [gr.facet_center(e.dst.facet) for e in edges
               if e.rule == 2]
    walk = [r / slope for x, r in stops]
    on_line = all((x, r) == at(r / slope) for x, r in stops + centres)
    # the breakpoints and the planes r = f(x) crossed there:
    #   1/20  r = x0 - 1/2
    #   1/12  r = x1 and r = x0 + x1 - 1/2
    #   1/8   r = x0 - x1 and r = 2 x0 - 1/2
    #   3/20  r = x0
    #   1/6   r = x0 + x1: the class {(1,4), (2,5)} at valuation 0,
    #         allowed as that class is not self-paired
    #   1/4   r = 1/2 and ten more planes through ((0, 0), 1/2)
    certified = {Fr(1, 20), Fr(1, 12), Fr(1, 8), Fr(3, 20), Fr(1, 6),
                 Fr(1, 4)}
    ok = (walk == breaks and on_line and len(edges) == 2 * len(breaks)
          and set(breaks) == certified)
    report(3, ok,
           "label dichotomy and discrepancy note pass; path: %d edges; "
           "line-plane crossings %s, walk rule-1 stops %s; stops and "
           "segment centres on the line: %s"
           % (len(edges), [str(s) for s in breaks], [str(s) for s in walk],
              on_line))


# -- 4: reductive quotient identification --------------------------------


def test_criterion_4_heart_structure():
    m6 = bd.u6_model(23)
    hy = bd.heart_structure(m6, bd.U6_Y)
    hz = bd.heart_structure(m6, bd.U6_Z)
    dim_y = sum(b[3] for b in hy)
    dim_z = sum(b[3] for b in hz)
    m7 = bd.u7_model(23)
    h7y = bd.heart_structure(m7, m7.point((0, 0)))
    h7z = bd.heart_structure(m7, m7.point((Fr(3, 4), Fr(1, 4))))
    m7h = bd.u7_h_model(23)
    h7hz = bd.heart_structure(m7h, m7h.point((Fr(3, 4), Fr(1, 4))))
    ok = (dim_y == 26 and dim_z == 18
          # y-vertex of the rank-7 model: SO_5 x Sp_2
          and ("B", 5, 10) in [b[1:] for b in h7y]
          and ("C", 2, 3) in [b[1:] for b in h7y]
          # z-vertex: Sp_6 in the full model, Sp_4 in the centralizer
          and ("C", 6, 21) in [b[1:] for b in h7z]
          and ("C", 4, 10) in [b[1:] for b in h7hz])
    report(4, ok, "u6 dims %d/%d, u7 y %s, z %s, centralizer z %s"
           % (dim_y, dim_z, h7y, h7z, h7hz))


# -- 5: parabolic descent identity ---------------------------------------


def test_criterion_5_parabolic_identity():
    t0 = time.monotonic()
    gl2 = sl.MatContext(2, 3)
    checked = 0
    for a in range(3):
        for b in range(3):
            if a == b:
                continue
            x = np.diag([a, b]).astype(np.int64)
            assert sl.verify_spr(gl2, x, (1, 1))
            assert sl.verify_spr(gl2, x, (1, 1), lower=True)
            checked += 2
    gl3 = sl.MatContext(3, 3)
    rng = random.Random(20260823)
    for _ in range(1000):
        a, b = rng.sample(range(3), 2)
        x = np.array([[a, rng.randrange(3), 0], [0, a, 0], [0, 0, b]],
                     dtype=np.int64)
        assert sl.verify_spr(gl3, x, (2, 1))
        checked += 1
    elapsed = time.monotonic() - t0
    ok = elapsed <= 300
    report(5, ok, "%d instances, exact equality, %.1fs"
           % (checked, elapsed))


# -- 6: induction against the dense-orbit brute force --------------------


def _partitions(n):
    def rec(n, mx):
        if n == 0:
            yield ()
            return
        for k in range(min(n, mx), 0, -1):
            for rest in rec(n - k, k):
                yield (k,) + rest
    yield from rec(n, n)


def _compositions(n):
    if n == 0:
        yield ()
        return
    for k in range(1, n + 1):
        for rest in _compositions(n - k):
            yield (k,) + rest


def test_criterion_6_induction_brute_force():
    from padicwf.ffield import prime_field
    checked = 0
    for q in (3, 5):
        F = prime_field(q)
        for n in (2, 3, 4):
            for comp in _compositions(n):
                blocks, off = [], 0
                for s in comp:
                    blocks.append(range(off, off + s))
                    off += s
                pos = [(i, j)
                       for bi in range(len(comp))
                       for bj in range(bi + 1, len(comp))
                       for i in blocks[bi] for j in blocks[bj]]
                for parts in product(*(list(_partitions(s))
                                       for s in comp)):
                    base = [[F.zero] * n for _ in range(n)]
                    off = 0
                    for lam in parts:
                        for b in lam:
                            for i in range(b - 1):
                                base[off + i][off + i + 1] = F.one
                            off += b
                    labels = set()
                    for coeffs in product(range(q), repeat=len(pos)):
                        X = [row[:] for row in base]
                        for cc, (i, j) in zip(coeffs, pos):
                            if cc:
                                X[i][j] = X[i][j] + F(cc)
                        labels.add(lg.jordan_type(la.mat(X)))
                    mx = max(labels, key=lambda t: tuple(
                        sum(t[:k + 1]) for k in range(n)))
                    assert all(ob.dominance_leq(t, mx) for t in labels), \
                        "no dense orbit over F_%d, levi %s %s" \
                        % (q, comp, parts)
                    want = ob.ls_induce(
                        [("A", s, p) for s, p in zip(comp, parts)],
                        "A", n)
                    assert mx == want, \
                        "F_%d levi %s %s: brute %s vs induced %s" \
                        % (q, comp, parts, mx, want)
                    checked += 1
    report(6, True, "%d (Levi, orbit) pairs, exhaustive nilradical "
           "enumeration, exact match" % checked)


# -- 7: small-group suite ------------------------------------------------


def test_criterion_7_small_group_suite():
    t0 = time.monotonic()
    gl2 = sl.MatContext(2, 3)
    gl3 = sl.MatContext(3, 3)

    # conjugacy: low-weight same-class perturbations of the regular
    # nilpotent conjugate back, gl_2 by unitriangulars, gl_3 over the
    # full group enumeration
    c2 = np.zeros((2, 2), dtype=np.int64)
    c2[0][1] = 1
    matched2 = 0
    low2 = [(i, j) for i in range(2) for j in range(2) if (1, -1)[i]
            - (1, -1)[j] < 2]
    for coeffs in product(range(3), repeat=len(low2)):
        y = c2.copy()
        for t, (i, j) in zip(coeffs, low2):
            y[i][j] = (y[i][j] + t) % 3
        if gl2.is_nilpotent(y) and gl2.jordan_type(y) == (2,):
            assert any(np.array_equal(
                (np.array([[1, 0], [a, 1]]) @ y
                 @ np.array([[1, 0], [-a % 3, 1]])) % 3, c2)
                for a in range(3))
            matched2 += 1
    assert matched2 == 3

    c3 = np.zeros((3, 3), dtype=np.int64)
    c3[0][1] = c3[1][2] = 1
    gs, gis = gl3.group()
    gs, gis = np.asarray(gs), np.asarray(gis)
    assert len(gs) == goldens.GL3_F3_ORDER
    lam = (2, 0, -2)
    low3 = [(i, j) for i in range(3) for j in range(3)
            if lam[i] - lam[j] < 2]
    matched3 = 0
    for coeffs in product(range(3), repeat=len(low3)):
        y = c3.copy()
        for t, (i, j) in zip(coeffs, low3):
            y[i][j] = (y[i][j] + t) % 3
        if gl3.is_nilpotent(y) and gl3.jordan_type(y) == (3,):
            conj = np.einsum("gik,kl,glj->gij", gs, y, gis) % 3
            assert (conj == c3).all(axis=(1, 2)).any()
            matched3 += 1
    assert matched3 > 0

    # dimension equality: slice functions restricted to the nilpotent
    # cone span one dimension per nilpotent class
    xis2 = [sl.test_fn(gl2, c, d) for _, c, _, d in sl.sl2_reps(gl2)]
    m2 = gl2.nilpotent_mask()
    assert la.rank([x.vals[m2, 0].tolist() for x in xis2], la.Q_OPS) == 2
    xis3 = [sl.test_fn(gl3, c, d) for _, c, _, d in sl.sl2_reps(gl3)]
    m3 = gl3.nilpotent_mask()
    assert la.rank([x.vals[m3, 0].tolist() for x in xis3], la.Q_OPS) == 3

    # transitivity: the centralizer of the regular nilpotent permutes
    # its chain completions transitively
    gs2, gis2 = gl2.group()
    cen = [(g, gi) for g, gi in zip(gs2, gis2)
           if np.array_equal((g @ c2 @ gi) % 3, c2)]
    mats = gl2.all_matrices()
    comps = [(h, d) for h in mats for d in mats
             if np.array_equal((h @ c2 - c2 @ h) % 3, (2 * c2) % 3)
             and np.array_equal((h @ d - d @ h) % 3, (-2 * d) % 3)
             and np.array_equal((c2 @ d - d @ c2) % 3, h % 3)]
    assert len(comps) == 3
    key = lambda h, d: (int(gl2.encode(h[None])[0]),
                        int(gl2.encode(d[None])[0]))
    h0, d0 = comps[0]
    orbit = set(key((g @ h0 @ gi) % 3, (g @ d0 @ gi) % 3)
                for g, gi in cen)
    assert orbit == set(key(h, d) for h, d in comps)

    # nonemptiness of the slice-transport set for split elements
    for a in range(3):
        for b in range(3):
            if a != b:
                assert sl.theta_count([[a, 0], [0, b]], 3, 1) > 0

    elapsed = time.monotonic() - t0
    ok = elapsed <= 600
    report(7, ok, "conjugacy (%d + %d perturbations, full GL_3(F_3) "
           "search), ranks 2/3, transitivity on %d completions, "
           "transport sets nonempty; %.1fs"
           % (matched2, matched3, len(comps), elapsed))


# -- 8: graph edge invariants --------------------------------------------


def _builtin_traces():
    out = []
    for name in ("sl2", "u7h"):
        v, depth = cli._scenario_vertex(name)
        q = v.model.field.residue.p
        out.append((name, q, gr.path_trace(v, depth)))
    return out


def test_criterion_8_graph_invariants():
    violations = 0
    edges_total = 0
    for name, q, edges in _builtin_traces():
        for e in edges:
            edges_total += 1
            if not (bd.precede(e.src.facet, e.dst.facet)
                    and not bd.precede(e.dst.facet, e.src.facet)):
                violations += 1
            if e.rule == 2 and e.src.label() != e.dst.label():
                violations += 1
            if e.rule == 1:
                if not ob.dominance_leq(e.src.label(), e.dst.label()):
                    violations += 1
                # the coset itself always survives to the facet below
                if e.dst.cmat != e.src.cmat:
                    violations += 1
                basis = gr.fiber_basis(e.src, e.dst.facet)
                if q ** len(basis) <= 2000:
                    # small fibers: the full fan-out partitions the
                    # coset with the predicted cardinality
                    outs = gr.out_edges_rule1(e.src, e.dst.facet)
                    cosets = [o.coset() for o in outs]
                    if len(outs) != q ** len(basis):
                        violations += 1
                    if sum(1 for c in cosets
                           if c == e.dst.coset()) != 1:
                        violations += 1
    report(8, violations == 0,
           "%d edges over built-in runs, %d violations"
           % (edges_total, violations))


# -- 9: shift invariance -------------------------------------------------


def test_criterion_9_shift_invariance():
    rng = random.Random(20260824)
    models = [bd.sl2_model(3), bd.sl3_model(3)]
    passed = trial = 0
    while trial < 200:
        m = models[trial % 2]
        E = m.field
        lam = tuple(rng.choice([-2, -1, 1, 2]) for _ in range(m.d))
        Lam = tuple(sum(c * l for c, l in zip(coeffs, lam))
                    for coeffs, _ in m.weight_funcs)
        diffs = sorted({Lam[i] - Lam[j] for i in range(m.n)
                        for j in range(m.n)} - {0})
        if not diffs:
            continue
        ell = rng.choice(diffs)
        pos = [(i, j) for i in range(m.n) for j in range(m.n)
               if Lam[i] - Lam[j] == ell]
        w = tuple(Fr(rng.randrange(-1, 2)) for _ in range(m.n))
        r = Fr(rng.randrange(-1, 2))
        g = [[E.zero() for _ in range(m.n)] for _ in range(m.n)]
        for (i, j) in pos:
            if rng.random() < 0.7:
                v = int(r - w[i] + w[j])
                g[i][j] = (E.from_int(rng.randrange(1, 3))
                           * E.uniformizer() ** v)
        c = mpq.project(m, g, w, r)
        t = rng.choice([Fr(1, 12), Fr(1, 8), Fr(1, 6), Fr(1, 4),
                        Fr(1, 3), Fr(1, 2), Fr(1)])
        trial += 1
        if mpq.shift_check(c, lam, ell, t):
            passed += 1
    report(9, passed == 200,
           "%d/200 randomized instances hold exactly" % passed)
