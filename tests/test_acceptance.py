"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance here is exact.
"""

import functools
import math
import random
import time
from itertools import chain

from cutsys import cli, sympcurves
from cutsys import complexes as cx
from cutsys import homotopy as H
from cutsys import rigidity as R
from cutsys import walks
from cutsys.geomcurves import all_slopes, islope, twist_slope
from cutsys.sympcurves import HClass, SympSpace, combine, inter, pairing, transvect
from cutsys.universe import SympF2Universe, make_universe

from wordmodel import CyclicWord, Inessential, RibbonSurface, iword, iword_oracle, slope_word


def report(num, name, ok, detail=""):
    line = f"criterion {num:2d} [{name}]: {'PASS' if ok else 'FAIL'} {detail}"
    print(line)
    assert ok, line


def random_frame(universe, g, k, rng, twists=6):
    """A random cut system: a twisted image of the standard basis frame."""
    S = SympSpace(g)
    frame = [S.basis_a(i) for i in range(1, k + 1)]
    pool = [S.basis_a(i) for i in range(1, g + 1)] + [
        S.basis_b(i) for i in range(1, g + 1)
    ]
    for _ in range(rng.randint(0, twists)):
        t = pool[rng.randrange(len(pool))]
        n = rng.choice((-2, -1, 1, 2))
        frame = [universe.twist(t, n, c) for c in frame]
    return tuple(sorted(frame))


def test_criterion_1_schmutz_identity():
    ok = True
    detail = []
    for g in (2, 3):
        u = make_universe("sympF2", g=g)
        t0 = time.time()
        gamma1 = cx.build_gamma(u, 1)
        schmutz = cx.build_schmutz(u)
        same = gamma1.vertices == schmutz.vertices and set(gamma1.edges) == set(
            schmutz.edges
        )
        ok &= same
        detail.append(f"g={g}: {len(gamma1.vertices)}v/{len(gamma1.edges)}e {time.time()-t0:.2f}s")
    report(1, "schmutz-identity", ok, "; ".join(detail))


def test_criterion_2_diameter_window():
    details = []
    ok = True
    t0 = time.time()
    d1 = cx.f2_gamma1_eccentricity(3)
    ok &= 1 <= d1 <= 4
    details.append(f"g=3,k=1: diam={d1}")
    d2, total = cx.f2_gamma_k2_eccentricity(5)
    ok &= 2 <= d2 <= 12
    ok &= total == cx.f2_count_vertices_k2(5)  # connected
    details.append(f"g=5,k=2: diam={d2} over {total} vertices")
    details.append(f"{time.time()-t0:.1f}s")
    report(2, "diameter-window", ok, "; ".join(details))


def test_criterion_3_constructive_bound():
    rng = random.Random(303)
    t0 = time.time()
    checked = 0
    ok = True
    first_bad = None
    while checked < 500:
        g = rng.choice((2, 3, 4, 5))
        k = min(rng.choice((1, 2, 3)), g - 1)
        u = make_universe("sympZ", g=g)
        prover = H.Prover(u)
        v = random_frame(u, g, k, rng)
        w = random_frame(u, g, k, rng)
        path = H.connect(prover, v, w)
        length = len(path) - 1
        good = path[0] == v and path[-1] == w and H.check_path(u, path)
        # its image mod 2 is a path of the mod-2 shadow at the highest genus it reaches
        g_max = max(c.g for x in path for c in x)
        good &= H.check_path(SympF2Universe(g_max), [_mod2_vertex(x) for x in path])
        good &= length <= 8 * k - 4 or v == w
        if len(set(v) | set(w)) == 2 * k and v != w:
            good &= length >= k
        if not good and first_bad is None:
            first_bad = (g, k, v, w, length)
        ok &= good
        checked += 1
    report(3, "connect-bound", ok, f"500 pairs, {time.time()-t0:.1f}s {first_bad or ''}")


def test_criterion_4_lemma_path_bound():
    rng = random.Random(404)
    t0 = time.time()
    checked = 0
    ok = True
    while checked < 500:
        g = rng.choice((2, 3, 4))
        k = min(rng.choice((1, 2, 3)), g - 1)
        u = make_universe("sympZ", g=g)
        prover = H.Prover(u)
        base = random_frame(u, g, k, rng)
        common = base[1:]
        a = base[0]
        t = rng.choice((0, 1, 2))
        b = u.solve([(a, t)] + [(c, 0) for c in common])
        if b is None or b == a or not u.cut_ok(common + (b,)):
            continue
        v = tuple(sorted(common + (a,)))
        w = tuple(sorted(common + (b,)))
        path = H.path_common(prover, v, w)
        interior = path[1:-1]
        good = len(path) - 1 <= 4 and len(interior) <= 3
        good &= all(all(c in vv for c in common) for vv in interior)
        good &= H.check_path(u, path)
        ok &= good
        checked += 1
    report(4, "common-curve-path", ok, f"500 pairs, {time.time()-t0:.1f}s")


def test_criterion_5_twist_identity_and_inequality():
    rng = random.Random(505)
    t0 = time.time()
    ok = True

    def draw():
        while True:
            x = [rng.randint(-3, 3) for _ in range(8)]
            if math.gcd(*x) == 1:
                return HClass(x)

    for _ in range(10_000):
        u, v, w = draw(), draw(), draw()
        n = rng.randint(-6, 6)
        ok &= inter(transvect(u, n, v), w) == abs(pairing(v, w) + n * pairing(u, v) * pairing(u, w))
    slopes = all_slopes(4)
    count = 0
    for a in slopes:
        for b in slopes:
            iab = islope(a, b)
            for c in slopes:
                iac, ibc = islope(a, c), islope(b, c)
                for n in range(-6, 7):
                    if abs(islope(twist_slope(a, n, b), c) - abs(n) * iab * iac) > ibc:
                        ok = False
                    count += 1
    report(5, "twist-identity", ok, f"10^4 random + {count} slope checks, {time.time()-t0:.1f}s")


def _mutate(cert, rng):
    """A deterministic certificate corruption that any replay must reject."""
    steps = list(cert.steps)
    i = rng.randrange(len(steps))
    s = steps[i]
    mode = rng.choice(("window", "drop", "fill"))
    if mode == "drop" and len(steps) > 1:
        del steps[i]
    elif mode == "fill" and s.op == H.CELL_FILL and len(s.new) > 2:
        new = list(s.new)
        new[1] = new[1][::-1] if len(new[1]) > 1 else (new[1][0], new[1][0])
        corrupted = tuple(tuple(v) for v in new)
        steps[i] = H.Step(s.op, s.at, s.old, corrupted, s.kind)
    else:
        old = list(s.old)
        old[0] = old[0] + (old[0][0],)
        steps[i] = H.Step(s.op, s.at, tuple(old), s.new, s.kind)
    return H.HomotopyCertificate(steps)


@functools.cache
def _criterion_6_certificates():
    """The 200 contracted loops of criterion 6 as (universe, loop,
    certificate), each accepted by its integer replay, and the state of the
    draw's rng after them."""
    rng = random.Random(606)
    certs = []
    attempts = 0
    while len(certs) < 200:
        attempts += 1
        assert attempts < 2000, "loop sampling stalled"
        g = rng.choice((2, 3, 4, 5))
        k = min(rng.choice((1, 2, 3)), max(1, g - 1))
        u = make_universe("sympZ", g=g)
        loop = walks.random_closed_walk(u, g, k, rng, steps=rng.randint(2, 6))
        if loop is None:
            continue
        prover = H.Prover(u)
        cert = H.HomotopyCertificate(H.contract(prover, loop))
        ok, idx = H.verify_certificate(u, loop, cert)
        assert ok, f"certificate rejected at step {idx} (g={g}, k={k})"
        certs.append((u, loop, cert))
    return certs, rng.getstate()


def test_criterion_6_certificate_soundness():
    t0 = time.time()
    certs, state = _criterion_6_certificates()
    good = len(certs)
    rng = random.Random()
    rng.setstate(state)
    rejected = 0
    for t in range(50):
        u, loop, cert = certs[rng.randrange(len(certs))]
        while True:
            bad = _mutate(cert, rng)
            if bad.steps != cert.steps:
                break
        ok, idx = H.verify_certificate(u, loop, bad)
        rejected += not ok
    report(
        6,
        "certificate-soundness",
        good == 200 and rejected == 50,
        f"200 contracted, {rejected}/50 mutations rejected, {time.time()-t0:.0f}s",
    )


def _mod2(c):
    """A sympZ class reduced mod 2 into the f2_swap layout: coordinate j,
    which interleaves (a1, b1, a2, ...) as the bits do, goes to bit j."""
    return sum((x & 1) << j for j, x in enumerate(c.coords))


def _mod2_vertex(v):
    return tuple(sorted(map(_mod2, v)))


def _push_forward(loop, cert):
    """(sympF2 universe, loop, steps): the image of a sympZ certificate mod 2,
    at the highest genus any of its curves reaches."""
    steps = [H.Step(s.op, s.at, tuple(map(_mod2_vertex, s.old)), tuple(map(_mod2_vertex, s.new)), s.kind) for s in cert.steps]
    g = max(c.g for v in chain(loop, *(s.old + s.new for s in cert.steps)) for c in v)
    return SympF2Universe(g), [_mod2_vertex(v) for v in loop], steps


def test_certificates_push_forward_to_mod_2(tmp_path, monkeypatch):
    # reduction mod 2 is simplicial from the integer shadow at genus G to the
    # mod-2 shadow at G and keeps each cell's pattern, so the image of every
    # valid certificate must replay there
    certs = [(loop, cert) for _, loop, cert in _criterion_6_certificates()[0]]
    out = tmp_path / "loop42.json"  # the README example
    assert cli.main(["contract", "--g", "3", "--k", "2", "--steps", "4", "--seed", "42", "--out", str(out)]) == 0
    certs.append(cli._read_certificate(out))
    # the loops again, bridged over fresh curves: their own centers draw no
    # handle past 16, the bridges do
    with monkeypatch.context() as m:
        m.setattr(H, "_own_center", lambda *a, **kw: None)
        certs += [(loop, cert) for _, loop, cert in _criterion_6_certificates.__wrapped__()[0]]
    images = [_push_forward(loop, cert) for loop, cert in certs]
    assert all(H.verify_certificate(*image) == (True, None) for image in images)
    # not vacuous: a pairing blind above handle 16 rejects every image reaching past it
    high = [image for image in images if image[0].g > 16]
    assert high
    swap = sympcurves.f2_swap
    monkeypatch.setattr(sympcurves, "f2_swap", lambda u, g: swap(u & ((1 << 32) - 1), min(g, 16)))
    assert not any(H.verify_certificate(*image)[0] for image in high)


def test_criterion_7_hexagon_construction():
    rng = random.Random(707)
    t0 = time.time()
    done = 0
    ok = True
    while done < 100:
        g = rng.choice((2, 3))
        u = make_universe("sympZ", g=g)
        prover = H.Prover(u)
        S = SympSpace(g)
        i, j = rng.sample(range(1, g + 1), 2) if g > 2 else (1, 2)
        x, y = S.basis_a(i), S.basis_a(j)
        z = combine(x, 1, y)
        trip = [x, y, z]
        pool = [S.basis_a(t) for t in range(1, g + 1)] + [
            S.basis_b(t) for t in range(1, g + 1)
        ]
        for _ in range(rng.randint(0, 5)):
            t = pool[rng.randrange(len(pool))]
            n = rng.choice((-1, 1))
            trip = [u.twist(t, n, c) for c in trip]
        rng.shuffle(trip)
        try:
            (b0, b1, b2), hexagon, cert = H.hex_escorts(prover, *trip)
        except H.NotApplicable:
            continue
        bs = (b0, b1, b2)
        for t in range(3):
            ok &= u.inter(trip[t], bs[t]) == 1
            ok &= u.inter(trip[(t + 1) % 3], bs[t]) == 1
            ok &= u.inter(trip[(t + 2) % 3], bs[t]) == 0
        ok &= all(u.inter(bs[i1], bs[j1]) == 0 for i1 in range(3) for j1 in range(i1 + 1, 3))
        vok, _ = H.verify_certificate(u, hexagon, cert)
        ok &= vok
        done += 1
    report(7, "hexagon-construction", ok, f"100 triples, {time.time()-t0:.1f}s")


def _enum_words(surface, max_len):
    letters = [i for e in range(1, surface.edges + 1) for i in (e, -e)]
    seen, out = set(), []

    def rec(word):
        if word:
            try:
                w = CyclicWord(word, surface)
                if w.letters not in seen:
                    seen.add(w.letters)
                    out.append(w)
            except (Inessential, ValueError):
                pass
        if len(word) < max_len:
            for letter in letters:
                if word and word[-1] == -letter:
                    continue
                rec(word + [letter])

    rec([])
    return out


def test_criterion_8_slope_word_agreement():
    t0 = time.time()
    ok = True
    for a in all_slopes(5):
        for b in all_slopes(5):
            if iword(slope_word(a), slope_word(b), bound=24) != islope(a, b):
                ok = False
    pairs = 0
    caps = {1: (7, 8), 2: (5, 6)}  # genus -> (max word length, combined cap)
    for g, (ml, cap) in caps.items():
        surface = RibbonSurface.standard(g, 1)
        words = _enum_words(surface, ml)
        for u in words:
            for v in words:
                if len(u) + len(v) <= cap:
                    if iword(u, v) != iword_oracle(u, v):
                        ok = False
                    pairs += 1
    report(8, "slope-word-agreement", ok, f"dictionary<=5 + {pairs} word pairs, {time.time()-t0:.0f}s")


def test_criterion_9_rigidity_identities():
    rng = random.Random(909)
    t0 = time.time()
    g, k = 3, 2
    u = make_universe("sympZ", g=g)
    S = SympSpace(g)
    pool = [S.basis_a(i) for i in range(1, g + 1)] + [
        S.basis_b(i) for i in range(1, g + 1)
    ]
    words = []
    for _ in range(20):
        n = rng.randint(1, 3)
        words.append(
            R.TwistWord(
                tuple(
                    (pool[rng.randrange(len(pool))], rng.choice((-2, -1, 1, 2)))
                    for _ in range(n)
                )
            )
        )
    ok = True
    # well-definedness across ten companion systems each
    for w in words:
        oracle = R.twist_oracle(u, w)
        curve = pool[rng.randrange(len(pool))]
        values = set()
        for _ in range(10):
            comps = R._companions(u, curve, k, g, rng)
            partner = R._partner(u, curve, comps)
            values.add(R.induced_curve_map(u, oracle, curve, k, g, comps, partner))
        ok &= len(values) == 1 and values == {w.act(u, curve)}
    # homomorphism, pointwise match, kernel witness
    rep = R.check_phi_psi(u, words, g, k, rng, curve_samples=30)
    ok &= rep.passed
    report(9, "rigidity-identities", ok, f"20 words, {rep.checked} checks, {time.time()-t0:.0f}s")


def test_criterion_10_homology_probe():
    t0 = time.time()
    ok = True
    values = {}
    for k in (1, 2):
        u = make_universe("sympF2", g=2)
        graph = cx.build_gamma(u, k)
        # chain_homology raises if the Smith and rational ranks of the d2 rows
        # its kill pass leaves disagree; at g=2 the pass kills every generator
        b0, b1 = cx.chain_homology(graph)
        values[k] = (b0, b1)
        ok &= b0 == 1
    report(
        10,
        "homology-probe",
        ok,
        f"g=2: k=1 -> {values[1]}, k=2 -> {values[2]} (reported), {time.time()-t0:.1f}s",
    )
