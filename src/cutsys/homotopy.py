"""Loop contraction in cut-system complexes, with replayable certificates.

Paths are vertex sequences connected by elementary moves.  A contraction
certificate is a flat list of locally checkable steps (cell fills and
backtracks) turning a closed path into a constant one; the verifier replays
certificates against the backend predicates only, independently of how they
were produced.

The prover follows the inductive scheme: bounded-length path construction
(common-curve paths of length at most 4, a fresh handle drawn from a
non-planar end when a construction needs room), contraction of single-curve
loops by fans over one center (through escort curves when no prefix of the
loop has a center), and the radius-0 segment induction with its
junction case analysis, including the hexagon bypass for separating triples.
A loop of k >= 2 curves runs the induction about one of its own curves when
it has radius 0 about one, and else about a fresh curve bridged into it.
All integer-shadow constructions thread a frozen context so that
sub-contractions in a cut surface lift back.  The prover is untrusted: it
checks none of the steps it emits, and a certificate is sound only once
verify_certificate accepts it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain, combinations

from .sympcurves import HClass, SympSpace, combine, f2_rank, is_primitive_frame, lincomb, solve_pairings


class NotApplicable(ValueError):
    pass


class InvalidReference(ValueError):
    pass


class ContractionError(RuntimeError):
    """The shadow lattice ran out of geometric analogies for this loop."""


class InvalidStep(ValueError):
    """A rewrite broke a soundness rule: a step that does not apply to the
    current path, or a vertex that is not a cut system.  The message names
    the op, the position and the rule."""


# --- paths -------------------------------------------------------------------


def check_path(universe, vertices, context=(), closed=False):
    for v in vertices:
        if not universe.cut_ok(v, context):
            return False
    for x, y in zip(vertices, vertices[1:]):
        if not _edge_ok(universe, x, y):
            return False
    if closed and vertices[0] != vertices[-1]:
        return False
    return True


def _edge_ok(universe, v, w):
    sv, sw = set(v), set(w)
    out, into = sv - sw, sw - sv
    if len(out) != 1 or len(into) != 1:
        return False
    return universe.inter(next(iter(out)), next(iter(into))) == 1


def radius(universe, path, a):
    """max over vertices of the least intersection of a with a vertex curve."""
    if not any(a in v for v in path):
        raise InvalidReference("reference curve lies in no vertex of the path")
    return max(min(universe.inter(a, b) for b in v) for v in path)


# --- certificates --------------------------------------------------------------


CELL_FILL = "cell_fill"
BT_INSERT = "backtrack_insert"
BT_REMOVE = "backtrack_remove"
CELL_KINDS = ("triangle", "rectangle", "pentagon")


@dataclass(frozen=True, slots=True)
class Step:
    op: str
    at: int
    old: tuple  # replaced vertex window, old[0] == new[0], old[-1] == new[-1]
    new: tuple
    kind: str = ""  # claimed cell type for fills


@dataclass
class HomotopyCertificate:
    """Contraction steps.  As JSON, {"curves": [...], "vertices": [...],
    "steps": [...]}: "curves" holds each distinct curve once as [g, [[index,
    value], ...]] (its genus and its nonzero coordinates), "vertices" each
    distinct vertex once as the indices of its curves in curve order, both in
    order of first use, and each step is a row [op, at, replace, with], a
    fill's ending with its kind, whose windows are lists of vertex indices."""

    steps: list = field(default_factory=list)

    def __len__(self):
        return len(self.steps)

    def to_json(self):
        curve_at, vertex_at = {}, {}  # insertion order is the order of first use
        for s in self.steps:
            for v in s.old + s.new:
                if v not in vertex_at:
                    vertex_at[v] = len(vertex_at)
                    for c in v:
                        curve_at.setdefault(c, len(curve_at))
        index = vertex_at.__getitem__
        steps = [[s.op, s.at, [*map(index, s.old)], [*map(index, s.new)]] for s in self.steps]
        for s, row in zip(self.steps, steps):
            if s.op == CELL_FILL:
                row.append(s.kind)
        return {
            "curves": [c.to_json() for c in curve_at],
            "vertices": [[curve_at[c] for c in v] for v in vertex_at],
            "steps": steps,
        }

    @classmethod
    def from_json(cls, obj):
        """Parse a certificate; a ValueError names the malformed step, vertex
        or curve.  Each curve and vertex must appear once, a curve in the
        canonical encoding of HClass.from_json and a vertex in curve order;
        a fill's kind is one of CELL_KINDS."""
        if not isinstance(obj, dict) or not all(isinstance(obj.get(k), list) for k in ("curves", "vertices", "steps")):
            raise ValueError("certificate must be an object with 'curves', 'vertices' and 'steps' lists")
        table, first = [], {}
        for j, e in enumerate(obj["curves"]):
            c = _curve(f"curve {j}", e)
            if first.setdefault(c, j) != j:
                raise ValueError(f"curve {j}: duplicate of curve {first[c]}")
            table.append(c)
        n, vertices, seen = len(table), [], {}
        for j, v in enumerate(obj["vertices"]):
            # True and 1.0 equal 1: only exact ints are indices
            if not (isinstance(v, list) and v and all(type(x) is int and 0 <= x < n for x in v)):
                raise ValueError(f"vertex {j}: {v!r} is not a non-empty list of curve indices below {n}")
            key = tuple(v)
            if len(set(key)) != len(key):
                raise ValueError(f"vertex {j}: a curve repeats")
            curves = tuple(map(table.__getitem__, v))
            if not all(x < y for x, y in zip(curves, curves[1:])):
                raise ValueError(f"vertex {j}: curves out of curve order")
            if seen.setdefault(key, j) != j:
                raise ValueError(f"vertex {j}: duplicate of vertex {seen[key]}")
            vertices.append(curves)
        m = len(vertices)

        def window(i, name, w):
            if not (isinstance(w, list) and all(type(x) is int and 0 <= x < m for x in w)):
                raise ValueError(f"step {i}: {name!r} holds {w!r}, not a list of vertex indices below {m}")
            return tuple(map(vertices.__getitem__, w))

        steps = []
        for i, row in enumerate(obj["steps"]):
            if not isinstance(row, list) or len(row) not in (4, 5):
                raise ValueError(f"step {i}: not a row [op, at, replace, with] or, for a fill, [op, at, replace, with, kind]")
            op, at, old, new, *kind = row
            if op not in (CELL_FILL, BT_INSERT, BT_REMOVE):
                raise ValueError(f"step {i}: unknown op {op!r}")
            if len(row) != (5 if op == CELL_FILL else 4):
                raise ValueError(f"step {i}: a fill row ends with its kind, a backtrack row does not")
            if type(at) is not int:
                raise ValueError(f"step {i}: 'at' must be an integer, not {at!r}")
            if kind and kind[0] not in CELL_KINDS:
                raise ValueError(f"step {i}: the cell kind must be one of {'/'.join(CELL_KINDS)}, not {kind[0]!r}")
            steps.append(Step(op, at, window(i, "replace", old), window(i, "with", new), *kind))
        return cls(steps)


def _curve(where, e):
    """HClass.from_json(e), its ValueError prefixed with `where`."""
    try:
        return HClass.from_json(e)
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from None


def loop_to_json(loop):
    """A loop as JSON: per vertex, the list of its curves' HClass.to_json."""
    return [[c.to_json() for c in v] for v in loop]


def loop_from_json(obj):
    """Inverse of loop_to_json, each vertex sorted; ValueError when malformed."""
    if not isinstance(obj, list) or not obj or not all(isinstance(v, list) and v for v in obj):
        raise ValueError("'loop' must be a non-empty list of non-empty vertex lists")
    return tuple(
        tuple(sorted(_curve(f"loop vertex {i} curve {j}", e) for j, e in enumerate(v))) for i, v in enumerate(obj)
    )


def cell_pattern(universe, cycle, context=(), known=0):
    """Re-derive the cell type of a vertex cycle from its curve data alone.

    Returns "triangle" | "rectangle" | "pentagon" | None.  This check is
    independent of the detector and the prover.  The first `known` vertices
    must be a path of cut systems already checked: they get no cut test, and
    the known - 1 sides between them no edge test.

    Once every vertex is a cut system and every side an edge, the curve
    conditions of a cell need no further `inter` call.  A triangle's side
    v_i -> v_(i+1) swaps b_i for b_(i+1), so each pair of b's meets once.  A
    rectangle's or pentagon's rails e_(i-1) and e_i both lie in the cut
    system v_i, so they are disjoint; its side v_i -> v_(i+1) swaps e_(i-1)
    for e_(i+1), so rails two apart meet once.
    """
    m = len(cycle)
    if len(set(cycle)) != m:
        return None
    for v in cycle[known:]:
        if not universe.cut_ok(v, context):
            return None
    for i in range(max(known - 1, 0), m):
        if not _edge_ok(universe, cycle[i], cycle[(i + 1) % m]):
            return None
    common = set(cycle[0]).intersection(*cycle[1:])
    k = len(cycle[0])
    if m == 3:
        # each v_i = common + {b_i}, and the b_i differ as the vertices do
        return "triangle" if len(common) == k - 1 else None
    if m in (4, 5):
        # rails e_i = (v_i & v_(i+1)) - common: single and distinct, each
        # v_i - common = {e_(i-1), e_i}
        if len(common) != k - 2:
            return None
        own = [set(v) - common for v in cycle]
        rails = []
        for i in range(m):
            shared = own[i] & own[(i + 1) % m]
            if len(shared) != 1:
                return None
            rails += shared
        if len(set(rails)) != m:
            return None
        for i in range(m):
            if own[i] != {rails[i - 1], rails[i]}:
                return None
        return "rectangle" if m == 4 else "pentagon"
    return None


def apply_step(universe, path, s):
    """Check one step against the current path, then splice it into the list.

    The one step checker, called by verify_certificate alone.  Raises
    InvalidStep and leaves path unchanged when the step breaks a rule.
    path must be a path of cut systems, as check_path accepts and every
    accepted step keeps; so the old window, equal to a piece of path, needs no
    test, and only what the step adds is tested: a spike tip and its edge, or
    a fill's new vertices and new sides.
    """

    def broken(rule):
        return InvalidStep(f"{s.op} at {s.at}: {rule}")

    end = s.at + len(s.old)
    if not s.old or not s.new:
        raise broken("empty window")
    if not all(s.old) or not all(s.new):
        raise broken("empty vertex")
    if s.at < 0 or end > len(path):
        raise broken("window outside the path")
    if tuple(path[s.at : end]) != s.old:
        raise broken("window differs from the path")
    if s.old[0] != s.new[0] or s.old[-1] != s.new[-1]:
        raise broken("window endpoints change")
    if s.kind and s.op in (BT_INSERT, BT_REMOVE):
        raise broken(f"a backtrack claims a {s.kind}")
    if s.op == BT_INSERT:
        if len(s.old) != 1 or len(s.new) != 3 or s.new[0] != s.new[2]:
            raise broken("not a spike v, w, v replacing v")
        if not (universe.cut_ok(s.new[1]) and _edge_ok(universe, s.new[0], s.new[1])):
            raise broken("spike tip is not a neighbouring cut system")
    elif s.op == BT_REMOVE:
        if len(s.old) != 3 or len(s.new) != 1 or s.old[0] != s.old[2]:
            raise broken("not a spike v, w, v collapsing to v")
    elif s.op == CELL_FILL:
        if len(s.old) == len(s.new) == 1:
            raise broken("fill of a single vertex")
        if s.kind not in CELL_KINDS:
            raise broken(f"the cell kind must be one of {'/'.join(CELL_KINDS)}, not {s.kind!r}")
        cyc = s.old + s.new[-2:0:-1]
        kind = cell_pattern(universe, cyc, known=len(s.old))
        if kind is None:
            raise broken("boundary is not a cell")
        if s.kind != kind:
            raise broken(f"cell is a {kind}, not a {s.kind}")
    else:
        raise broken("unknown op")
    path[s.at : end] = s.new


def verify_certificate(universe, loop, cert):
    """Replay a certificate; (True, None) or (False, first failing index).
    The index is -1 when the loop itself is not a closed path of cut systems."""
    path = list(loop)
    if not path or not all(path) or not check_path(universe, path, closed=True):
        return False, -1
    steps = cert.steps if isinstance(cert, HomotopyCertificate) else cert
    for i, s in enumerate(steps):
        try:
            apply_step(universe, path, s)
        except InvalidStep:
            return False, i
    if len(path) != 1:
        return False, len(steps)
    return True, None


# --- composed steps ------------------------------------------------------------


_UNDO = {CELL_FILL: CELL_FILL, BT_INSERT: BT_REMOVE, BT_REMOVE: BT_INSERT}


@dataclass(frozen=True)
class Steps:
    """The steps of `parts` (a Step, a Steps or a list of them) shifted
    `offset` places along the path, with the curves `lift` added to every
    vertex, and undone in reverse order when `inverted`."""

    parts: object
    offset: int = 0
    lift: tuple = ()
    inverted: bool = False


def flatten(parts):
    """The list[Step] of composed steps, each built once.  Offsets add, lifts
    unite (each vertex sorted once) and inversions cancel."""
    out = []
    lifted = {}  # (vertex, curves) -> the vertex with the curves added
    stack = [(parts, 0, (), False)]  # walked depth first, the next part on top
    while stack:
        t, offset, curves, inverted = stack.pop()
        if isinstance(t, Steps):
            stack.append((t.parts, offset + t.offset, curves + t.lift, inverted != t.inverted))
        elif isinstance(t, list):
            stack += [(p, offset, curves, inverted) for p in (t if inverted else reversed(t))]
        elif offset or curves or inverted:
            op, old, new = (_UNDO[t.op], t.new, t.old) if inverted else (t.op, t.old, t.new)
            if curves:
                for v in old + new:
                    if (v, curves) not in lifted:
                        lifted[v, curves] = tuple(sorted(v + curves))
                old, new = (tuple([lifted[v, curves] for v in w]) for w in (old, new))
            out.append(Step(op, t.at + offset, old, new, t.kind))
        else:
            out.append(t)
    return out


def _ensure(ok, what):  # a prover postcondition that python -O keeps
    if not ok:
        raise ContractionError(what)


# --- the rewriter ---------------------------------------------------------------


class PathRewriter:
    """Holds the evolving path and accumulates composed steps, unchecked:
    verify_certificate checks them when it replays the flattened steps."""

    def __init__(self, vertices):
        self.path = list(vertices)
        self.parts = []

    def _emit(self, step):
        self.path[step.at : step.at + len(step.old)] = step.new
        self.parts.append(step)

    def fill(self, at, old_len, new_subpath, kind):
        old = tuple(self.path[at : at + old_len + 1])
        self._emit(Step(CELL_FILL, at, old, tuple(new_subpath), kind))

    def remove_backtrack(self, at):
        old = tuple(self.path[at : at + 3])
        self._emit(Step(BT_REMOVE, at, old, (old[0],)))

    def apply_steps(self, steps):
        """Append a contraction of the whole path to its base vertex; returns all parts."""
        self.parts.append(steps)
        del self.path[1:]
        return self.parts

    def replace(self, at, old_edges, new_subpath, contractor):
        """Swap the window [at .. at+old_edges] for new_subpath, which must
        keep the window's endpoints.

        contractor(loop) must return steps contracting the closed path
        loop = new_subpath + reverse(old window)[1:], based at the window's
        first vertex; their inverse, spliced in at the window, leaves
        new_subpath followed by a spike per old edge, which is then removed.
        """
        old = self.path[at : at + old_edges + 1]
        new = list(new_subpath)
        if not old or not new or old[0] != new[0] or old[-1] != new[-1]:
            raise InvalidStep(f"replace at {at}: the new subpath changes the window's endpoints")
        loop = tuple(new + old[::-1][1:])
        self.parts.append(Steps(contractor(loop), offset=at, inverted=True))
        self.path[at : at + 1] = loop
        for j in range(at + len(new) + old_edges - 2, at + len(new) - 2, -1):
            self.remove_backtrack(j)

    def clean_backtracks(self):
        changed = True
        while changed:
            changed = False
            for j in range(len(self.path) - 2):
                if self.path[j] == self.path[j + 2]:
                    self.remove_backtrack(j)
                    changed = True
                    break


def rotate_left(vertices, j):
    """The closed path rebased j steps along itself."""
    n = len(vertices) - 1
    j %= n
    return tuple(vertices[j:-1]) + tuple(vertices[: j + 1])


def contract_rebased(vertices, j, contractor):
    """Contract a closed path by contracting its rebase j steps along.

    contractor(rotated_vertices) must return contraction steps for the
    rebased loop; the wrapper conjugates them back to the original basepoint:
    a backtrack out to each of the first j vertices, the contraction, and the
    backtracks removed in reverse.
    """
    V = tuple(vertices)
    n = len(V) - 1
    j %= n
    steps = [Step(BT_INSERT, n + i, (V[i],), (V[i], V[i + 1], V[i])) for i in range(j)]
    steps.append(Steps(contractor(rotate_left(V, j)), offset=j))
    steps += [Step(BT_REMOVE, i, (V[i], V[i + 1], V[i]), (V[i],)) for i in reversed(range(j))]
    return steps


# --- the prover ------------------------------------------------------------------


class Prover:
    """Bundles a sympZ universe, its room, and the frozen context."""

    def __init__(self, universe, context=()):
        self.u = universe
        self.ctx = tuple(context)

    def sub(self, *extra):
        return Prover(self.u, self.ctx + tuple(extra))

    def cut_ok(self, curves):
        return self.u.cut_ok(curves, self.ctx)

    def vertex(self, curves):
        v = tuple(sorted(curves))
        if not self.cut_ok(v):
            raise InvalidStep(f"vertex {v}: not a cut system in context {self.ctx}")
        return v

    def fresh_pair(self):
        return self.u.room.fresh_pair()

    def fresh_fill(self, base, count):
        """Extend base curves by fresh handle a-classes to a full cut system."""
        out = list(base)
        for _ in range(count):
            ha, _hb = self.fresh_pair()
            out.append(ha)
        return self.vertex(out)

    def solve(self, constraints, orthogonal=(), forbid=(), bump=True):
        """Primitive class with prescribed pairings, orthogonal to the context.

        With bump=True the solution is displaced by a fresh handle b-class, so
        any vertex stack containing it stays primitive and all prescribed
        pairings against pre-existing curves are unchanged.
        """
        x = self.u.solve(constraints, orthogonal=tuple(orthogonal) + self.ctx, forbid=forbid)
        if x is None:
            return None
        if bump:
            _ha, hb = self.fresh_pair()
            x = combine(x, 1, hb)
        return x


# --- bounded path construction ----------------------------------------------------


def path_common(prover, v, w):
    """Path of length <= 4 between cut systems differing in one curve; all
    interior vertices contain the common curves."""
    u = prover.u
    sv, sw = set(v), set(w)
    diff_v, diff_w = sv - sw, sw - sv
    if len(diff_v) != 1 or len(diff_w) != 1:
        raise NotApplicable("path_common needs systems with all but one curve in common")
    a, b = next(iter(diff_v)), next(iter(diff_w))
    common = tuple(sorted(sv & sw))
    if u.inter(a, b) == 1:
        return [v, w]
    # one middle vertex if a class pairs once with both ends; prefer an
    # undisplaced solution so small examples stay small
    for bump in (False, True):
        for t in (1, -1):
            d = prover.solve([(a, 1), (b, t)], orthogonal=common, bump=bump)
            if d is None or not u.cut_ok(common + (d,), prover.ctx):
                continue
            mid = prover.vertex(common + (d,))
            path = [v, mid, w]
            if check_path(u, path, prover.ctx):
                return path
    # universal bridge through one fresh handle
    da = prover.solve([(a, 1)], orthogonal=common, bump=False)
    db = prover.solve([(b, 1)], orthogonal=common, bump=False)
    if da is None or db is None:
        raise ContractionError("no dual classes at current genus")
    ha, hb = prover.fresh_pair()
    d1 = combine(da, 1, hb)
    d3 = combine(db, 1, hb)
    path = [
        v,
        prover.vertex(common + (d1,)),
        prover.vertex(common + (ha,)),
        prover.vertex(common + (d3,)),
        w,
    ]
    _ensure(check_path(u, path, prover.ctx), "the bridge through a fresh handle is no path")
    return path


def connect(prover, v, w):
    """Path v -> w of length at most 8k - 4, built by the genus-drawing
    induction on the number of uncommon curves."""
    if v == w:
        return [v]
    sv, sw = set(v), set(w)
    diff_v = sorted(sv - sw)
    diff_w = sorted(sw - sv)
    _ensure(len(diff_v) == len(diff_w), "cut systems of different sizes")
    if len(diff_v) == 1:
        return path_common(prover, v, w)
    a, b = diff_v[0], diff_w[0]
    ha, _hb = prover.fresh_pair()
    v2 = prover.vertex(tuple(sv - {a}) + (ha,))
    w2 = prover.vertex(tuple(sw - {b}) + (ha,))
    p1 = path_common(prover, v, v2)
    p2 = connect(prover, v2, w2)
    p3 = path_common(prover, w2, w)
    out = p1[:-1] + p2[:-1] + p3
    _ensure(len(out) - 1 <= 8 * len(diff_v) - 4, "path longer than 8k - 4")
    return out


def segment_connect(prover, v, w, common):
    """Path from v to w all of whose vertices contain the given curves."""
    common = tuple(sorted(common))
    _ensure(all(c in v and c in w for c in common), "an end misses a common curve")
    if v == w:
        return [v]
    sub = prover.sub(*common)
    sv = tuple(x for x in v if x not in common)
    sw = tuple(x for x in w if x not in common)
    if not sv:
        _ensure(v == w, "ends with only common curves differ")
        return [v]
    inner = connect(sub, sub.vertex(sv), sub.vertex(sw))
    return [prover.vertex(tuple(x) + common) for x in inner]


# --- square contraction (Gamma_1) ----------------------------------------------------


def contract_square(universe, loop):
    """Contract a 4-cycle of curves whose (1,3)-diagonal is disjoint.

    Twist powers about x1 first make the (0,2)-diagonal disjoint (each
    replacement justified by two triangles), then four triangles around the
    twist image finish the job.
    """
    vertices = tuple(loop)
    if len(vertices) != 5 or vertices[0] != vertices[-1]:
        raise NotApplicable("contract_square needs a based 4-cycle")
    if any(len(v) != 1 for v in vertices):
        raise NotApplicable("contract_square works on single-curve vertices")
    rw = PathRewriter(vertices)
    y = [v[0] for v in vertices[:4]]
    if vertices[0] == vertices[2]:
        rw.remove_backtrack(0)
        rw.remove_backtrack(0)
        return rw.parts
    if vertices[1] == vertices[3]:
        rw.remove_backtrack(1)
        rw.remove_backtrack(0)
        return rw.parts
    if universe.inter(y[1], y[3]) != 0:
        raise NotApplicable("the (1,3)-diagonal must be disjoint")
    y2 = y[2]
    while universe.inter(y[0], y2) > 0:
        t = universe.signed(y2, y[0])
        u1 = universe.signed(y[1], y2)
        u0 = universe.signed(y[1], y[0])
        best = None
        for s in (1, -1):
            val = abs(t + s * u1 * u0)
            if best is None or val < best[1]:
                best = (s, val)
        s, val = best
        _ensure(val < abs(t), "twist reduction must strictly decrease the pairing")
        y2n = universe.twist(y[1], s, y2)
        rw.fill(1, 1, ((y[1],), (y2n,), (y2,)), "triangle")
        rw.fill(2, 2, ((y2n,), (y[3],)), "triangle")
        y2 = y2n
        if (y2,) == vertices[0]:
            rw.remove_backtrack(0)
            rw.remove_backtrack(0)
            return rw.parts
    b = universe.twist(y[1], 1, y2)
    if universe.inter(b, y[0]) != 1:
        b = universe.twist(y[1], -1, y2)
    rw.fill(0, 1, ((y[0],), (b,), (y[1],)), "triangle")
    rw.fill(1, 2, ((b,), (y2,)), "triangle")
    rw.fill(1, 2, ((b,), (y[3],)), "triangle")
    rw.fill(0, 2, ((y[0],), (y[3],)), "triangle")
    rw.remove_backtrack(0)
    return rw.parts


def square_any_diagonal(universe, loop):
    """Contract a based 4-cycle [q0,q1,q2,q3,q0] of single curves given some
    disjoint opposite pair."""
    q0, q1, q2, q3 = (v[0] for v in loop[:4])
    if universe.inter(q1, q3) == 0:
        return contract_square(universe, loop)
    if universe.inter(q0, q2) == 0:
        return contract_rebased(loop, 1, lambda vs: contract_square(universe, vs))
    raise NotApplicable("no disjoint diagonal")


def _dual_of(a, context):
    g = max([a.g] + [c.g for c in context] + [1])
    m0 = solve_pairings(SympSpace(g), [(a, 1)], orthogonal=context)
    if m0 is None:
        raise ContractionError("no dual class for the radius-1 center")
    return m0


def _flanked_based(universe, vertices, a0, context):
    # vertices = [a0, fr, x_r, ..., x_l, fl, a0]
    rw = PathRewriter(vertices)
    while len(rw.path) > 5:
        # path = [a0, fr', x_i, x_{i-1}, ..., fl, a0]
        f = rw.path[1][0]
        xi = rw.path[2][0]
        xnext = rw.path[3][0]
        if universe.inter(f, xnext) != 0:
            fstar = _clean_flank(universe, a0, xi, xnext, context)
            rw.replace(0, 2, ((a0,), (fstar,), (xi,)), lambda loop: square_any_diagonal(universe, loop))
            f = fstar
        b = universe.twist(f, 1, xi)
        if universe.inter(b, a0) != 1:
            b = universe.twist(f, -1, xi)
        rw.fill(1, 1, ((f,), (b,), (xi,)), "triangle")
        rw.fill(2, 2, ((b,), (xnext,)), "triangle")
        rw.fill(0, 2, ((a0,), (b,)), "triangle")
    # [a0, f, x_l, fl, a0]
    return rw.apply_steps(contract_rebased(tuple(rw.path), 1, lambda vs: contract_square(universe, vs)))


def _clean_flank(universe, a0, xi, xnext, context):
    """A curve meeting a0 and x_i once and disjoint from x_next.

    Starts from any dual of a0 and corrects with multiples of the run curves,
    which are disjoint from a0; the result pairs once with a0, hence is
    primitive.
    """
    if not isinstance(a0, HClass):
        raise NotApplicable("flank cleaning needs the integer shadow")
    m0 = _dual_of(a0, tuple(context))
    e = universe.signed(xi, xnext)
    _ensure(abs(e) == 1, "run curves x_i, x_next do not meet once")
    alpha = -e * universe.signed(m0, xnext)
    beta = e * (universe.signed(m0, xi) - 1)
    f = lincomb((1, m0), (alpha, xi), (beta, xnext))
    _ensure(universe.inter(f, a0) == 1, "clean flank does not meet a0 once")
    _ensure(universe.inter(f, xi) == 1, "clean flank does not meet x_i once")
    _ensure(universe.inter(f, xnext) == 0, "clean flank meets x_next")
    return f


# --- Gamma_1 contraction with room (escorted shrink) ---------------------------


def escort_triple(prover, loop_curves):
    """Escort curves for a closed curve loop: (b0, b1, b2) with b2 disjoint
    from every loop curve, b2 meeting b0 and b1 once, b0 meeting the first
    loop curve once and b1 the second.

    Drawn from one fresh handle, so the construction is unconditional: a
    non-planar end always has one more handle.
    """
    x0, x1 = loop_curves[0], loop_curves[1]
    ha, hb = prover.fresh_pair()
    b2 = ha
    e01 = prover.u.signed(x1, x0)
    _ensure(abs(e01) == 1, "first two loop curves do not meet once")
    b0 = combine(hb, 1, x1)  # meets x0 once via the x1 component
    b1 = combine(hb, 1, x0) if e01 == 1 else combine(hb, -1, x0)
    _ensure(prover.u.inter(b0, x0) == 1 and prover.u.inter(b1, x1) == 1, "escorts b0, b1 miss their loop curves")
    _ensure(prover.u.inter(b2, b0) == 1 and prover.u.inter(b2, b1) == 1, "escort b2 does not meet b0 and b1 once")
    _ensure(all(prover.u.inter(b2, c) == 0 for c in loop_curves), "escort b2 meets a loop curve")
    return b0, b1, b2


def _f2_center_possible(curves, context):
    """Whether some class mod 2 pairs oddly with every curve and evenly with
    the context, as every center of a fan over the curves does.  The pairing
    is non-degenerate, so the system <z, x> = rhs has the classes themselves
    as its rows, and it is solvable iff the right-hand side adds no rank."""

    def bits(c):
        return sum(1 << i for i, x in c.support if x & 1)

    rows = [bits(x) << 1 | 1 for x in curves] + [bits(c) << 1 for c in context]  # rhs in bit 0
    return f2_rank(rows) == f2_rank([r >> 1 for r in rows])


def _fan_center(prover, curves, loop_curves):
    """A curve z meeting each of the distinct `curves` once, with (z,) a cut
    system in the prover's context, or None.  The all-+1 sign pattern is
    solved first, then those with one and with two -1 signs; a fresh handle
    is drawn only when the solution is a loop curve or no cut system."""
    if not _f2_center_possible(curves, prover.ctx):
        return None
    n = len(curves)
    for flips in chain.from_iterable(combinations(range(n), r) for r in (0, 1, 2)):
        z = prover.solve([(x, -1 if i in flips else 1) for i, x in enumerate(curves)], bump=False)
        if z is not None:
            if z in loop_curves or not prover.cut_ok((z,)):
                z = combine(z, 1, prover.fresh_pair()[1])
            return z
    return None


def contract_gamma1(prover, vertices):
    """Contract a closed path of single curves.  The path must have no
    backtrack and no triangle boundary: contract removes those first.

    The loop x0 ... x(m-1) x0 fans over one center z meeting every loop
    curve once: a spike out to z at the base, one triangle (z, x_i, x_(i+1))
    per edge, and the spike removed, m + 2 steps.  With no such center, the
    longest prefix x0 ... xj (j >= 3) that has one fans, and the shorter loop
    [x0, z, xj, ..., x0] is contracted.  Only when no prefix has a center is
    the first edge re-routed through the escort bridge of one fresh handle,
    after which the whole loop is a single disjoint run about the fresh
    center and shrinks by twist insertions with freshly cleaned flanks.
    """
    m = len(vertices) - 1
    curves = [v[0] for v in vertices[:-1]]
    rw = PathRewriter(vertices)
    for n in range(m, 3, -1):  # a fan over x0 ... x(n-1), the whole loop at n = m
        z = _fan_center(prover, list(dict.fromkeys(curves[:n])), curves)
        if z is None:
            continue
        v0, c = vertices[0], (z,)
        rw._emit(Step(BT_INSERT, 0, (v0,), (v0, c, v0)))
        for v in vertices[1 : m + 1 if n == m else n]:
            rw.fill(1, 2, (c, v), "triangle")
        if n < m:
            return rw.apply_steps(_contract(prover, tuple(rw.path)))
        rw.remove_backtrack(0)
        return rw.parts
    x0, x1 = curves[0], curves[1]
    b0, b1, b2 = escort_triple(prover, [x0, x1])

    def shrink(loop):
        # rebase at b2, two steps along, and shrink the run about it
        return contract_rebased(loop, 2, lambda vs: _flanked_based(prover.u, vs, b2, prover.ctx))

    # bridge the first edge: x0 -> b0 -> b2 -> b1 -> x1, a 5-cycle with x0-x1
    rw.replace(0, 1, [(x0,), (b0,), (b2,), (b1,), (x1,)], shrink)
    # now [x0, b0, b2, b1, x1, x2, ..., x0]
    return rw.apply_steps(shrink(tuple(rw.path)))


# --- radius-0 engine ------------------------------------------------------------


def _strip(vertices, c):
    return tuple(tuple(x for x in v if x != c) for v in vertices)


def _lift_steps(steps, c):
    return Steps(steps, lift=(c,))


def sp_radius0(prover, vertices, c):
    """Contract a loop all of whose vertices contain the curve c, by
    contracting the stripped loop one level down and lifting the steps."""
    _ensure(all(c in v for v in vertices), "a vertex misses the segment curve")
    k = len(vertices[0])
    if k == 1:
        rw = PathRewriter(vertices)
        rw.clean_backtracks()
        _ensure(len(rw.path) == 1, "a one-curve segment loop must be constant")
        return rw.parts
    inner = _contract(prover.sub(c), _strip(vertices, c))
    return _lift_steps(inner, c)


def _maximal_run(vertices, c, start):
    """End index of the maximal run of vertices containing c from start."""
    n = len(vertices) - 1
    end = start
    while end < n and c in vertices[end + 1]:
        end += 1
    return end


def _ladder_steps(loop):
    """Contract the rectangle ladder loop based at B[m]:

        [B[m], T[m], T[m-1], ..., T[0], B[0], B[1], ..., B[m]]

    where B[i] and T[i] differ by one curve swap of intersection one and the
    rails B and T are parallel paths.
    """
    m = (len(loop) - 3) // 2
    rail_b, rail_t = loop[m + 2 :], loop[m + 1 : 0 : -1]
    rw = PathRewriter(loop)
    for j in range(m):
        i = m - 1 - j
        rw.fill(j, 2, (rail_b[i + 1], rail_b[i], rail_t[i]), "rectangle")
    rw.remove_backtrack(m)
    for j in range(m - 1, -1, -1):
        rw.remove_backtrack(j)
    return rw.parts


def contract_radius0(prover, vertices, a0, _no_recenter=False):
    """Contract a loop of radius 0 about a0 by the segment induction."""
    u = prover.u
    if radius(u, vertices, a0) != 0:
        raise NotApplicable("loop must have radius 0 about the center")
    rw = PathRewriter(vertices)
    rw.clean_backtracks()
    work = tuple(rw.path)
    if len(work) == 1:
        return rw.parts
    if not any(a0 in v for v in work):
        raise InvalidReference("backtrack collapse removed every vertex through the center")
    # rebase at the start of a maximal a0-run
    n = len(work) - 1
    starts = [i for i in range(n) if a0 in work[i] and a0 not in work[(i - 1) % n]]
    if not starts:  # a0 in every vertex
        return rw.apply_steps(sp_radius0(prover, work, a0))
    return rw.apply_steps(contract_rebased(work, starts[0], lambda vs: _radius0_based(prover, vs, a0, _no_recenter)))


def _radius0_based(prover, vertices, a0, no_recenter=False):
    """Radius-0 contraction for loops starting at the head of their a0-run."""
    u = prover.u
    n = len(vertices) - 1
    e1 = _maximal_run(vertices, a0, 0)
    if e1 == n:
        return sp_radius0(prover, vertices, a0)
    v1 = vertices[e1]
    shared = sorted(c for c in v1 if c in vertices[e1 + 1] and c != a0)
    if not shared:
        raise ContractionError("junction vertices share no curve")
    # prefer a second-segment curve that extends furthest, ties to the least curve
    best = max(_maximal_run(vertices, c, e1) for c in shared)
    a1 = min(c for c in shared if _maximal_run(vertices, c, e1) == best)
    e2 = best
    rw = PathRewriter(vertices)
    if e2 == n:
        _two_segment(prover, rw, a0, a1, e1)
        return rw.apply_steps(sp_radius0(prover, tuple(rw.path), a0))
    v2 = vertices[e2]
    after = vertices[e2 + 1]
    candidates = sorted(c for c in after if u.inter(a0, c) == 0)
    if not candidates:
        raise ContractionError("radius-0 loop lost its disjoint curve")
    # dispatch preference: merge on a0 itself, then case 1, then case 2
    if a0 in candidates:
        _merge_a0(prover, rw, a0, a1, e1, e2)
    else:
        in_curve = next(iter(set(after) - set(v2)))
        case1 = [c for c in candidates if c == in_curve and c not in v2]
        case2 = [
            c
            for c in candidates
            if c in v2 and _stack_primitive(prover, (a0, c))
        ]
        if case1:
            _case1(prover, rw, a0, a1, case1[0], e1, e2)
        elif case2:
            _case2(prover, rw, a0, a1, case2[0], e1, e2)
        else:
            done = _case3(prover, rw, a0, a1, candidates, e1, e2)
            if not done:
                steps = None if no_recenter else _own_center(prover, vertices, skip=a0)
                _ensure(steps is not None, "separating-shadow junction with no usable merge and no other center")
                return steps
    return rw.apply_steps(contract_radius0(prover, tuple(rw.path), a0, _no_recenter=no_recenter))


def _stack_primitive(prover, curves):
    return is_primitive_frame(list(curves) + list(prover.ctx))


def _two_segment(prover, rw, a0, a1, e1):
    """Reroute the second segment through an (a0, a1)-segment."""
    n = len(rw.path) - 1
    v1, v0 = rw.path[e1], rw.path[0]
    r = segment_connect(prover, v1, v0, (a0, a1))
    rw.replace(e1, n - e1, r, lambda loop: sp_radius0(prover, loop, a1))


def _merge_a0(prover, rw, a0, a1, e1, e2):
    """The next segment's curve is a0 itself: bypass the middle segment."""
    v1, v2 = rw.path[e1], rw.path[e2]
    vmid = prover.fresh_fill([a0, a1], len(v1) - 2)
    r1 = segment_connect(prover, v1, vmid, (a0, a1))
    r2 = segment_connect(prover, vmid, v2, (a0, a1))
    rw.replace(e1, e2 - e1, r1[:-1] + r2, lambda loop: sp_radius0(prover, loop, a1))


def _near_target(sub, mid, a0):
    """mid with one curve swapped for a0 (curves meeting a0 once first), a
    cut system in sub's context; None when no swap is."""
    for y in sorted(mid, key=lambda y: sub.u.inter(y, a0) != 1):
        w = tuple(sorted(tuple(c for c in mid if c != y) + (a0,)))
        if sub.cut_ok(w):
            return w
    return None


def _case1(prover, rw, a0, a1, a2, e1, e2):
    """The junction move swaps the segment curve for one disjoint from a0:
    ladder across the cut along the meeting pair.  The rails run from mid to
    mid itself or a neighbour holding a0, to a fresh fill of a0 only when no
    neighbour is a cut system."""
    u = prover.u
    v1, v2, after = rw.path[e1], rw.path[e2], rw.path[e2 + 1]
    _ensure(u.inter(a1, a2) == 1, "junction curves do not meet once")
    mid = tuple(c for c in v2 if c != a1)
    sub = prover.sub(a1, a2)
    if a0 in mid:
        target = sub.vertex(mid)
    else:
        target = _near_target(sub, mid, a0) or sub.fresh_fill([a0], len(mid) - 1)
    q = connect(sub, sub.vertex(mid), target)
    rail_b = [prover.vertex(x + (a1,)) for x in q]  # from v2 to u1
    rail_t = [prover.vertex(x + (a2,)) for x in q]  # from `after` to u2
    _ensure(rail_b[0] == v2 and rail_t[0] == after, "ladder rails start off the junction")
    u1 = rail_b[-1]
    r0 = segment_connect(prover, v1, u1, (a0, a1))
    # (i) seg2 -> r0 + reverse(bottom rail), inside an a1-segment loop
    y1 = r0[:-1] + list(reversed(rail_b))
    rw.replace(e1, e2 - e1, y1, lambda loop: sp_radius0(prover, loop, a1))
    # (ii) reverse(bottom rail) + junction edge -> top rail, by the ladder
    at = e1 + len(r0) - 1
    m = len(q) - 1
    y2 = [u1] + list(reversed(rail_t))
    if y2 != rw.path[at : at + m + 2]:
        rw.replace(at, m + 1, y2, _ladder_steps)


def _hex_pattern(prover, a0, a1, a2):
    """Escort curves b0, b1, b2 for the hexagon bypass: b_i meets a_i and
    a_{i+1} once, everything else in the pattern is disjoint."""
    bs = []
    partners = [(a0, a1, a2), (a1, a2, a0), (a2, a0, a1)]
    for x, y, z in partners:
        sol = None
        for sx in (1, -1):
            for sy in (1, -1):
                sol = prover.solve(
                    [(x, sx), (y, sy), (z, 0)] + [(b, 0) for b in bs],
                )
                if sol is not None:
                    break
            if sol is not None:
                break
        if sol is None:
            raise ContractionError("no hexagon escorts at this configuration")
        bs.append(sol)
    return tuple(bs)


def _hexagon_cert(prover, a0, a1, a2, b0, b1, b2, common):
    """Contraction of the hexagon rim through the twist center: one pentagon,
    two rectangles, three triangles."""
    u = prover.u
    c = u.twist(a1, 1, b0)
    com = tuple(common)
    V = lambda *cs: prover.vertex(cs + com)
    w0, v1p, w2 = V(a0, a1), V(a0, b1), V(a0, a2)
    v3p, w1, v5p = V(b0, a2), V(a1, a2), V(a1, b2)
    W0, W1, W2 = V(b1, b2), V(c, b2), V(c, a2)
    hexagon = (w0, v1p, w2, v3p, w1, v5p, w0)
    rw = PathRewriter(hexagon)
    rw.fill(2, 1, (w2, W2, v3p), "triangle")
    rw.fill(3, 2, (W2, w1), "triangle")
    rw.fill(3, 2, (W2, W1, v5p), "rectangle")
    rw.fill(4, 1, (W1, W0, v5p), "triangle")
    rw.fill(1, 4, (v1p, W0), "pentagon")
    rw.fill(0, 2, (w0, v5p, W0), "rectangle")
    rw.remove_backtrack(1)
    rw.remove_backtrack(0)
    _ensure(len(rw.path) == 1, "hexagon certificate leaves more than a vertex")
    return hexagon, rw.parts


def _case2(prover, rw, a0, a1, a2, e1, e2):
    """The disjoint curve already sits in the junction vertex and pairs into a
    primitive frame with a0: merge through a common vertex when the triple is
    non-separating and k allows, else ride the hexagon."""
    k = len(rw.path[0])
    v1, v2 = rw.path[e1], rw.path[e2]
    triple = (a0, a1, a2)
    if k >= 3 and _stack_primitive(prover, triple):
        vmid = prover.fresh_fill(list(triple), k - 3)
        r1 = segment_connect(prover, v1, vmid, (a0, a1))
        r2 = segment_connect(prover, vmid, v2, (a1, a2))
        rw.replace(e1, e2 - e1, r1[:-1] + r2, lambda loop: sp_radius0(prover, loop, a1))
        return
    b0, b1, b2 = _hex_pattern(prover, a0, a1, a2)
    common = tuple(prover.fresh_pair()[0] for _ in range(k - 2))
    hexagon, hex_steps = _hexagon_cert(prover, a0, a1, a2, b0, b1, b2, common)
    w0, v1p, w2, v3p, w1, v5p, _ = hexagon
    r1 = segment_connect(prover, v1, w0, (a0, a1))
    r2 = segment_connect(prover, v2, w1, (a1, a2))
    # (i) seg2 -> r1 + hexagon a1-side + reverse(r2), an a1-segment loop
    y1 = r1[:-1] + [w0, v5p, w1] + list(reversed(r2))[1:]
    rw.replace(e1, e2 - e1, y1, lambda loop: sp_radius0(prover, loop, a1))
    # (ii) hexagon a1-side -> a0-side + a2-side: the loop is the hexagon
    rw.replace(e1 + len(r1) - 1, 2, [w0, v1p, w2, v3p, w1], lambda loop: hex_steps)


def _case3(prover, rw, a0, a1, candidates, e1, e2):
    """Separating-shadow junction: the merge through a common vertex with the
    fourth segment's curve, where the lattice allows it."""
    u = prover.u
    k = len(rw.path[0])
    n = len(rw.path) - 1
    v2 = rw.path[e2]
    a2 = candidates[0]
    e3 = _maximal_run(tuple(rw.path), a2, e2)
    if e3 >= n:
        return False
    v3 = rw.path[e3]
    nxt = rw.path[e3 + 1]
    a3s = [c for c in sorted(nxt) if u.inter(a0, c) == 0 and c in v3 and c != a2]
    ok3 = [c for c in a3s if k >= 3 and _stack_primitive(prover, (a0, a1, c))]
    if not ok3:
        return False
    a3 = ok3[0]
    v1 = rw.path[e1]
    w = prover.fresh_fill([a0, a1, a3], k - 3)
    r1 = segment_connect(prover, v1, w, (a0, a1))
    rmid = segment_connect(prover, w, v2, (a1,))
    ra = segment_connect(prover, w, v3, (a3,))
    # (i) seg2 -> r1 + rmid
    rw.replace(e1, e2 - e1, r1[:-1] + rmid, lambda loop: sp_radius0(prover, loop, a1))
    # (ii) rmid + seg3 -> ra, a three-run loop
    start = e1 + len(r1) - 1
    edges = len(rmid) - 1 + (e3 - e2)
    rw.replace(start, edges, ra, lambda loop: contract_radius0(prover, loop, a0, _no_recenter=True))
    return True


def _own_center(prover, vertices, skip=None):
    """Steps contracting the loop by the segment induction, with no
    recentering, about the first of its own curves in curve order, other
    than skip, about which it has radius 0 and the induction goes through;
    None when no curve does."""
    for c in sorted({c for v in vertices for c in v} - {skip}):
        if radius(prover.u, vertices, c) == 0:
            try:
                return contract_radius0(prover, vertices, c, _no_recenter=True)
            except (ContractionError, NotApplicable, InvalidStep):
                continue
    return None


# --- the public hexagon operation ----------------------------------------------


def hex_escorts(prover, a0, a1, a2, common=()):
    """Escorts and a contraction certificate for the hexagon of a separating
    triple whose pairwise unions are non-separating."""
    u = prover.u
    triple = (a0, a1, a2)
    if len(set(triple)) != 3 or any(
        u.inter(x, y) != 0 for x in triple for y in triple if x is not y
    ):
        raise NotApplicable("the triple must be three disjoint curves")
    for x, y in ((a0, a1), (a1, a2), (a0, a2)):
        if not _stack_primitive(prover, (x, y) + tuple(common)):
            raise NotApplicable("pairwise unions must be non-separating")
    if _stack_primitive(prover, triple + tuple(common)):
        raise NotApplicable("the triple union must separate")
    if not prover.cut_ok(tuple(sorted((a0, a1) + tuple(common)))):
        raise NotApplicable("(a0, a1, common) must be a cut system")
    b0, b1, b2 = _hex_pattern(prover, a0, a1, a2)
    hexagon, steps = _hexagon_cert(prover, a0, a1, a2, b0, b1, b2, tuple(common))
    return (b0, b1, b2), hexagon, HomotopyCertificate(steps)


# --- master contraction ----------------------------------------------------------


def contract(prover, loop):
    """Contract any closed loop, drawing fresh genus as the proofs do; the
    certificate's steps as a flat list."""
    return flatten(_contract(prover, loop))


def _contract(prover, loop):
    """contract's steps as a composition: every prover function returns its
    composition, and contract alone flattens it."""
    u = prover.u
    vertices = tuple(loop)
    if vertices[0] != vertices[-1]:
        raise NotApplicable("loop must be closed")
    rw = PathRewriter(vertices)
    rw.clean_backtracks()
    work = tuple(rw.path)
    if len(work) == 1:
        return rw.parts
    m = len(work) - 1
    kind = cell_pattern(u, work[:-1], prover.ctx) if m in (3, 4, 5) else None
    if kind:
        rw.fill(0, m - 1, (work[0], work[m - 1]), kind)
        rw.remove_backtrack(0)
        return rw.parts
    k = len(work[0])
    commons = set(work[0])
    for v in work[1:]:
        commons &= set(v)
    if commons:
        c = min(commons)
        return rw.apply_steps(sp_radius0(prover, work, c))
    if k == 1:
        return rw.apply_steps(contract_gamma1(prover, work))
    # theorem flow: the segment induction about a curve of radius 0, one of
    # the loop's own when one serves.  Else bridge the first edge over a
    # fresh curve, then the loop has radius 0 about it.  The bridge enters
    # and leaves its fresh vertex through two distinct partners of the new
    # handle, so the vertex occurs once with distinct neighbours and no
    # backtrack collapse can reach it.
    steps = _own_center(prover, work)
    if steps is not None:
        return rw.apply_steps(steps)
    v0, v1 = work[0], work[1]
    shared = sorted(set(v0) & set(v1))
    a0 = shared[0]
    ha, hb = prover.fresh_pair()
    fills = tuple(prover.fresh_pair()[0] for _ in range(k - 2))
    b = ha
    w0 = prover.vertex((a0, ha) + fills)
    u_in = prover.vertex((a0, hb) + fills)
    u_out = prover.vertex((a0, combine(hb, 1, a0)) + fills)
    s1 = segment_connect(prover, v0, u_in, (a0,))
    s2 = segment_connect(prover, u_out, v1, (a0,))
    bridge = PathRewriter(s1 + [w0] + s2)
    bridge.clean_backtracks()
    _ensure(any(b in v for v in bridge.path), "backtrack collapse removed the bridge's fresh curve")
    rw.replace(0, 1, bridge.path, lambda loop: sp_radius0(prover, loop, a0))
    rw.clean_backtracks()
    _ensure(any(b in v for v in rw.path), "backtrack collapse removed the fresh curve")
    return rw.apply_steps(contract_radius0(prover, tuple(rw.path), b))
