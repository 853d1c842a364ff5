import hashlib
import json
import os
import subprocess
import sys

import pytest

from cutsys import cli, homotopy
from cutsys import complexes as cx
from cutsys.sympcurves import HClass, SympSpace
from cutsys.universe import make_universe
from test_intlin import SNF_STALL_6X6


def run(argv):
    return cli.main(argv)


def test_build_report(tmp_path):
    out = tmp_path / "b.json"
    dot = tmp_path / "b.dot"
    assert run(["build", "--backend", "sympF2", "--g", "2", "--k", "1",
                "--out", str(out), "--dot", str(dot)]) == 0
    data = json.loads(out.read_text())
    assert len(data["vertices"]) == 15
    assert dot.read_text().startswith("graph complex {")


def test_diam_window(tmp_path):
    out = tmp_path / "d.json"
    assert run(["diam", "--backend", "sympF2", "--g", "2", "--k", "2",
                "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["in_window"] and 2 <= data["diameter"] <= 12


def test_diam_implicit_k2_matches_explicit(tmp_path):
    reports = []
    for extra in ([], ["--implicit"]):
        out = tmp_path / f"d{len(extra)}.json"
        assert run(["diam", "--g", "2", "--k", "2", "--out", str(out)] + extra) == 0
        reports.append(json.loads(out.read_text()))
    assert reports[0] == reports[1]
    assert reports[1]["diameter"] == 3


def test_diam_implicit_k4_exit_2(tmp_path, capsys):
    out = tmp_path / "d.json"
    assert run(["diam", "--g", "4", "--k", "4", "--implicit", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: implicit diameter supports k in {1, 2, 3}, got --k 4\n"
    assert not out.exists()


def test_diam_implicit_k3_matches_explicit_eccentricity(tmp_path):
    out = tmp_path / "d.json"
    assert run(["diam", "--g", "3", "--k", "3", "--implicit", "--out", str(out)]) == 0
    graph = cx.build_gamma(make_universe("sympF2", g=3), 3)
    assert json.loads(out.read_text())["diameter"] == cx.eccentricity(graph, (1, 4, 16)) == 6


@pytest.mark.parametrize("g", [6, 7])
def test_diam_implicit_k3_past_genus_6(tmp_path, g):
    # the type graph stops changing at genus 2k = 6
    out = tmp_path / "d.json"
    assert run(["diam", "--g", str(g), "--k", "3", "--implicit", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert (data["g"], data["diameter"], data["in_window"]) == (g, 6, True)


@pytest.mark.parametrize("command", ["diam", "homology"])
def test_slope_reports_its_own_genus(tmp_path, command):
    # the slope universe is the one-holed torus whatever --g says
    out = tmp_path / "s.json"
    assert run([command, "--backend", "slope", "--bound", "1", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert (data["backend"], data["g"], data["k"]) == ("slope", 1, 1)


def test_homology(tmp_path):
    out = tmp_path / "h.json"
    assert run(["homology", "--backend", "sympF2", "--g", "2", "--k", "1",
                "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert (data["b0"], data["b1"]) == (1, 0)


def test_homology_g3_k1(tmp_path):
    out = tmp_path / "h.json"
    assert run(["homology", "--g", "3", "--k", "1", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert (data["b0"], data["b1"]) == (1, 0)


def test_contract_verify_roundtrip_and_determinism(tmp_path):
    c1 = tmp_path / "c1.json"
    c2 = tmp_path / "c2.json"
    args = ["contract", "--g", "3", "--k", "2", "--steps", "3", "--seed", "42"]
    assert run(args + ["--out", str(c1)]) == 0
    assert run(args + ["--out", str(c2)]) == 0
    assert c1.read_bytes() == c2.read_bytes()
    v = tmp_path / "v.json"
    assert run(["verify", str(c1), "--out", str(v)]) == 0
    assert json.loads(v.read_text())["verified"] is True


def test_verify_rejects_tampered(tmp_path):
    c = tmp_path / "c.json"
    assert run(["contract", "--g", "3", "--k", "2", "--steps", "3",
                "--seed", "7", "--out", str(c)]) == 0
    data = json.loads(c.read_text())
    step = data["certificate"]["steps"][0]
    step[3] = step[3][::-1][:1] + step[3][:1]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    v = tmp_path / "v.json"
    assert run(["verify", str(bad), "--out", str(v)]) == 1
    rep = json.loads(v.read_text())
    assert rep["verified"] is False
    assert rep["failing_step"] is not None


def test_verify_rejects_loop_that_is_not_a_path(tmp_path):
    S = SympSpace(2)
    a = (S.basis_a(1), S.basis_a(2))
    mid = tuple(sorted((S.basis_a(1), HClass((0, 1, 0, 1)))))  # not a cut system
    spike = (a, mid, a)
    cert = homotopy.HomotopyCertificate([homotopy.Step(homotopy.BT_REMOVE, 0, spike, (a,))])
    c = tmp_path / "c.json"
    c.write_text(json.dumps({"loop": homotopy.loop_to_json(spike), "certificate": cert.to_json()}))
    v = tmp_path / "v.json"
    assert run(["verify", str(c), "--out", str(v)]) == 1
    assert json.loads(v.read_text()) == {"verified": False, "failing_step": -1}


def test_contract_prover_fault_exits_1(tmp_path, capsys, monkeypatch):
    lift = homotopy._lift_steps

    def corrupt(steps, c):
        out = homotopy.flatten(lift(steps, c))
        return [homotopy.Step(s.op, s.at, s.old, s.new, "pentagon" if s.kind == "triangle" else "triangle")
                if s.op == homotopy.CELL_FILL else s for s in out]

    monkeypatch.setattr(homotopy, "_lift_steps", corrupt)
    c = tmp_path / "c.json"
    assert run(["contract", "--g", "3", "--k", "3", "--steps", "2", "--seed", "1", "--out", str(c)]) == 1
    assert json.loads(c.read_text())["verified"] is False
    assert capsys.readouterr().err.startswith("certificate fails its replay at step ")


# sha256 of the two parts of `cutsys contract` reports, each as compact
# sorted JSON: the certificate (a change there changes certificates) and the
# rest of the report (the loop, g, k, seed and verified)
PINNED_REPORTS = [
    (["--seed", "1", "--g", "3", "--k", "1", "--steps", "5"],
     "762b0c8885f01ff85b15cd005da20a23940cd58f06ced793ec22934f49092421",
     "6089e5d752eb9dbc673149d2fb0759c5e5da00b3c97965b6e8189b79abe6c473"),
    (["--seed", "2", "--g", "3", "--k", "2", "--steps", "8"],
     "f363340f1ddda62c7b0ab9dad0b35e68429ea2cec6e52371d0d4889f738e078c",
     "e8143cf5ed4a165f53e40fb358498949090fe589e469137fd859ea92c501dc45"),
    (["--seed", "3", "--g", "4", "--k", "3", "--steps", "8"],
     "cb7de81bc3ec4e566909c14f987b7d60ac340a0c13da69b53ea005446f8de54c",
     "cc8c0ba476ee7146526adec9ff8cc3faea2e8ac963149d6ac9e1d2cc6e6b45d3"),
]


def _digests(path):
    """sha256 of a report's certificate and of the rest of the report."""
    data = json.loads(path.read_text())
    cert = data.pop("certificate")
    return tuple(hashlib.sha256(json.dumps(x, sort_keys=True, separators=(",", ":")).encode()).hexdigest()
                 for x in (cert, data))


@pytest.mark.parametrize("argv, cert_digest, loop_digest", PINNED_REPORTS, ids=["k1", "k2", "k3"])
def test_contract_report_pinned(tmp_path, argv, cert_digest, loop_digest):
    out = tmp_path / "c.json"
    assert run(["contract"] + argv + ["--out", str(out)]) == 0
    assert _digests(out) == (cert_digest, loop_digest)


def test_contract_reports_pinned_at_other_addresses(tmp_path):
    # classes hash by identity, so their addresses must not reach a report:
    # unrelated allocations before and between the runs move every class
    script = """
import json, sys
keep = [bytearray(i % 97 + 1) for i in range(30000)]
from cutsys.cli import main
for i, argv in enumerate(json.loads(sys.argv[1])):
    keep += [object() for _ in range(7919 * (i + 1))]
    if main(["contract"] + argv + ["--out", sys.argv[2] + str(i)]) != 0:
        sys.exit("contract failed")
"""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    argvs = json.dumps([argv for argv, *_ in PINNED_REPORTS])
    out = subprocess.run([sys.executable, "-c", script, argvs, str(tmp_path / "c")],
                         env=env, capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    for i, (_, *digests) in enumerate(PINNED_REPORTS):
        assert _digests(tmp_path / f"c{i}") == tuple(digests)


def _shift_curve(entry, handles):
    """A curve entry moved up `handles` handles: index i becomes i + 2 * handles."""
    g, pairs = entry
    return [g + handles, [[i + 2 * handles, x] for i, x in pairs]]


def _shift_report(data, handles):
    """A `cutsys contract` report, loop and certificate, moved up `handles`
    handles.  Handles are interchangeable, so the shifted certificate is a
    valid one for the shifted loop; and the order of classes is kept, so
    every vertex stays in curve order."""
    data["loop"] = [[_shift_curve(e, handles) for e in v] for v in data["loop"]]
    cert = data["certificate"]
    cert["curves"] = [_shift_curve(e, handles) for e in cert["curves"]]
    return data


def test_verify_a_report_shifted_up_100000_handles(tmp_path):
    # a dense loop curve at genus 100,003 would be 200,006 integers; an entry
    # is a few bytes more than unshifted
    c = tmp_path / "c.json"
    assert run(["contract"] + PINNED_REPORTS[1][0] + ["--out", str(c)]) == 0
    shifted = tmp_path / "s.json"
    shifted.write_text(json.dumps(_shift_report(json.loads(c.read_text()), 100_000), separators=(",", ":")))
    assert shifted.stat().st_size < 2 * c.stat().st_size
    v = tmp_path / "v.json"
    assert run(["verify", str(shifted), "--out", str(v)]) == 0
    assert json.loads(v.read_text()) == {"verified": True, "failing_step": None}


def test_verify_decides_a_six_curve_cut_test_quickly(tmp_path):
    # curves with no b-coordinates are pairwise orthogonal, so a vertex of six
    # curves carrying SNF_STALL_6X6 on a1..a6 sends the loop's cut test to the
    # primitivity test; the Smith form ran past 30 s on it
    vertex = []
    for row in SNF_STALL_6X6:
        row = [-x for x in row] if row[0] < 0 else row  # the canonical sign
        pairs = [[2 * j, x] for j, x in enumerate(row) if x]
        vertex.append([pairs[-1][0] // 2 + 1, pairs])
    report = tmp_path / "r.json"
    report.write_text(json.dumps({"loop": [vertex], "certificate": {"curves": [], "vertices": [], "steps": []}}))
    assert len(report.read_bytes()) == 432
    v = tmp_path / "v.json"
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-m", "cutsys.cli", "verify", str(report), "--out", str(v)],
                         env=env, capture_output=True, text=True, timeout=2)
    assert out.returncode == 1, out.stderr
    assert json.loads(v.read_text()) == {"verified": False, "failing_step": -1}


def _break_loop_key(data):
    del data["loop"]


def _break_certificate_key(data):
    del data["certificate"]


def _break_at(data):
    data["certificate"]["steps"][0][1] = "0"


def _break_op(data):
    data["certificate"]["steps"][0][0] = "teleport"


def _break_window(data):
    data["certificate"]["steps"][0][2] = "abc"


def _break_empty_loop(data):
    data["loop"] = []


def _set_fill_kind(kind):
    def corrupt(data):
        row = data["certificate"]["steps"][0]
        row[0], row[4:] = homotopy.CELL_FILL, [kind]
    return corrupt


_break_cell_kind = _set_fill_kind(3)  # no string
_break_cell_kind_hexagon = _set_fill_kind("hexagon")
_break_cell_kind_empty = _set_fill_kind("")


def _set_loop_curve(f):
    def corrupt(data):
        data["loop"][0][0] = f(*data["loop"][0][0])
    return corrupt


_break_loop_negative_sign = _set_loop_curve(lambda g, pairs: [g, [[i, -x] for i, x in pairs]])
_break_loop_genus_above = _set_loop_curve(lambda g, pairs: [g + 1, pairs])
_break_loop_imprimitive = _set_loop_curve(lambda g, pairs: [g, [[i, 2 * x] for i, x in pairs]])


def _dense_object(g, pairs):
    coords = [0] * (2 * g)
    for i, x in pairs:
        coords[i] = x
    return {"g": g, "coords": coords}


# the loop curve in the {"g", "coords"} object that reports held before
_break_loop_curve = _set_loop_curve(_dense_object)


def _set_index(x):
    def corrupt(data):
        data["certificate"]["vertices"][0][0] = x(data) if callable(x) else x
    return corrupt


_break_index_str = _set_index("0")
_break_index_bool = _set_index(False)
_break_index_negative = _set_index(-1)
_break_index_past_table = _set_index(lambda data: len(data["certificate"]["curves"]))


def _set_entry(f):
    def corrupt(data):
        curves = data["certificate"]["curves"]
        curves[0] = f(*curves[0])
    return corrupt


_break_entry_genus_above = _set_entry(lambda g, pairs: [g + 1, pairs])
_break_entry_negative_sign = _set_entry(lambda g, pairs: [g, [[i, -x] for i, x in pairs]])
_break_entry_not_increasing = _set_entry(lambda g, pairs: [g, pairs + pairs])
_break_entry_index_past_2g = _set_entry(lambda g, pairs: [g, pairs + [[2 * g, 1]]])
_break_entry_zero_value = _set_entry(lambda g, pairs: [g, [[i, 0] for i, x in pairs]])
_break_entry_imprimitive = _set_entry(lambda g, pairs: [g, [[i, 2 * x] for i, x in pairs]])


def _break_entry_duplicate(data):
    curves = data["certificate"]["curves"]
    curves.append(curves[0])


def _break_vertices_key(data):
    del data["certificate"]["vertices"]


def _break_vertex_empty(data):
    data["certificate"]["vertices"][0] = []


def _break_vertex_duplicate(data):
    vertices = data["certificate"]["vertices"]
    vertices.append(vertices[0])


def _break_vertex_repeats_curve(data):
    vertices = data["certificate"]["vertices"]
    vertices[0] = vertices[0] + vertices[0][:1]


def _break_vertex_out_of_curve_order(data):
    vertices = data["certificate"]["vertices"]
    vertices[0] = vertices[0][::-1]


def _break_window_index_bool(data):
    data["certificate"]["steps"][0][2][0] = False


def _break_window_index_past_table(data):
    data["certificate"]["steps"][0][2][0] = len(data["certificate"]["vertices"])


def _break_row_length(data):
    data["certificate"]["steps"][0].append("triangle")


# every _break_ function above, by its name: the closures that _set_index,
# _set_entry, _set_loop_curve and _set_fill_kind return are all called `corrupt`
BREAKERS = {name[len("_break_"):]: f for name, f in globals().items() if name.startswith("_break_")}


@pytest.mark.parametrize("corrupt", BREAKERS.values(), ids=BREAKERS.keys())
def test_verify_malformed_input_exit_2(tmp_path, capsys, corrupt):
    c = tmp_path / "c.json"
    assert run(["contract", "--g", "3", "--k", "2", "--steps", "3",
                "--seed", "7", "--out", str(c)]) == 0
    capsys.readouterr()
    data = json.loads(c.read_text())
    corrupt(data)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    assert run(["verify", str(bad), "--out", str(tmp_path / "v.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert not (tmp_path / "v.json").exists()


@pytest.mark.parametrize("used, code", [(False, 0), (True, 1)], ids=["unused", "spike_tip"])
def test_verify_high_genus_entry_exits_0_or_1(tmp_path, capsys, used, code):
    # the 21-byte entry b_500000 is read and, as a spike tip beside a loop
    # curve, cut-tested and paired without a dense vector
    c = tmp_path / "c.json"
    assert run(["contract", "--g", "3", "--k", "2", "--steps", "3",
                "--seed", "7", "--out", str(c)]) == 0
    data = json.loads(c.read_text())
    cert = data["certificate"]
    cert["curves"].append([500000, [[999999, 1]]])
    if used:
        # b_500000 comes last in curve order
        cert["vertices"].append(cert["vertices"][0][1:] + [len(cert["curves"]) - 1])
        cert["steps"].insert(0, [homotopy.BT_INSERT, 0, [0], [0, len(cert["vertices"]) - 1, 0]])
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    v = tmp_path / "v.json"
    assert run(["verify", str(bad), "--out", str(v)]) == code
    assert json.loads(v.read_text()) == {"verified": not used, "failing_step": 0 if used else None}
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["diam", "--backend", "sympF2", "--g", "1", "--k", "2"],
        ["homology", "--backend", "sympF2", "--g", "1", "--k", "2"],
    ],
    ids=["diam_g1_k2", "homology_g1_k2"],
)
def test_no_cut_system_at_genus_exit_2(tmp_path, capsys, argv):
    out = tmp_path / "o.json"
    assert run(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: no cut system of size") and err.count("\n") == 1, err
    assert not out.exists()


@pytest.mark.parametrize("g", [16, 40])
def test_diam_implicit_k1_past_genus_16(tmp_path, g):
    # the k = 1 type BFS runs at genus 2 for every g, so it holds no list of
    # the 4^g class ids, which from g = 16 would not fit uint32
    out = tmp_path / "d.json"
    assert run(["diam", "--backend", "sympF2", "--g", str(g), "--k", "1", "--implicit", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert (data["g"], data["diameter"], data["in_window"]) == (g, 2, True)


def test_rigidity_command(tmp_path):
    out = tmp_path / "r.json"
    assert run(["rigidity", "--g", "3", "--k", "2", "--words", "3",
                "--samples", "4", "--seed", "1", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["failed"] == 0


@pytest.mark.parametrize("seed", [6, 9, 16, 34])
def test_rigidity_freely_trivial_word_is_no_counterexample(tmp_path, seed):
    # each seed draws a word like ((a3, -2), (a3, 2)), which moves no curve
    out = tmp_path / "r.json"
    assert run(["rigidity", "--g", "3", "--k", "2", "--words", "8",
                "--seed", str(seed), "--out", str(out)]) == 0
    assert json.loads(out.read_text())["failed"] == 0


def test_props_command(tmp_path):
    out = tmp_path / "p.json"
    assert run(["props", "--seed", "3", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["passed"] is True
    assert {s["name"] for s in data["suites"]} == {
        "twist-identity",
        "slope-inequality",
        "schmutz-identity",
        "contract-roundtrip",
    }


def test_props_twist_identity_checks_the_transvect_it_calls(tmp_path, monkeypatch):
    # a twist that leaves every class where it is breaks the identity
    monkeypatch.setattr(cli, "transvect", lambda a, n, b: b)
    out = tmp_path / "p.json"
    assert run(["props", "--seed", "7", "--out", str(out)]) == 1
    data = json.loads(out.read_text())
    failed = {s["name"]: s["failed"] for s in data["suites"] if s["failed"] is not None}
    assert data["passed"] is False and list(failed) == ["twist-identity"]
    *classes, n = failed["twist-identity"]
    assert [type(HClass.from_json(c)) for c in classes] == [HClass] * 3 and n != 0


def test_props_same_seed_deterministic(tmp_path):
    o1, o2 = tmp_path / "p1.json", tmp_path / "p2.json"
    assert run(["props", "--seed", "3", "--out", str(o1)]) == 0
    assert run(["props", "--seed", "3", "--out", str(o2)]) == 0
    assert o1.read_bytes() == o2.read_bytes()


def test_bad_usage_exit_2(capsys):
    # the sympZ universe is not enumerable, so no complex command takes it
    for backend in ("bogus", "sympZ", "word"):
        with pytest.raises(SystemExit) as exc:
            run(["diam", "--backend", backend])
        assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv, err",
    [
        (["build", "--k", "0"], "--k must be at least 1"),
        (["diam", "--k", "0"], "--k must be at least 1"),
        (["homology", "--k", "-1"], "--k must be at least 1"),
        (["contract", "--k", "0"], "--k must be at least 1"),
        (["contract", "--steps", "0"], "--steps must be at least 1"),
        (["rigidity", "--k", "0"], "--k must be at least 1"),
        (["rigidity", "--words", "0"], "--words must be at least 1"),
        (["rigidity", "--samples", "0"], "--samples must be at least 1"),
        (["build", "--g", "-1"], "--g must be at least 1"),
        (["contract", "--g", "0"], "--g must be at least 1"),
        (["rigidity", "--g", "0"], "--g must be at least 1"),
        (["diam", "--backend", "sympF2", "--g", "0", "--k", "1", "--implicit"], "--g must be at least 1"),
        (["build", "--k", "2", "--schmutz"], "--schmutz builds the k = 1"),
        (["diam", "--backend", "slope", "--implicit"], "--implicit needs --backend sympF2"),
    ],
    ids=["build_k0", "diam_k0", "homology_k-1", "contract_k0", "contract_steps0", "rigidity_k0",
         "rigidity_words0", "rigidity_samples0", "build_g-1", "contract_g0", "rigidity_g0",
         "diam_implicit_g0_k1", "build_schmutz_k2", "diam_slope_implicit"],
)
def test_unusable_flag_value_exit_2(tmp_path, capsys, argv, err):
    out = tmp_path / "o.json"
    assert run(argv + ["--out", str(out)]) == 2
    text = capsys.readouterr().err
    assert text.startswith(f"error: {err}") and text.count("\n") == 1, text
    assert not out.exists()
