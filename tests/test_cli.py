"""CLI subcommands, exit codes, and report serialization."""

import json
import re

from conictopes import cli


def run(argv):
    import io
    import contextlib

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def test_verify_main_q5_exit_zero():
    code, out = run(["verify-main", "--p", "5", "--n", "1", "--mode", "full"])
    assert code == 0
    report = json.loads(out)
    assert report["total"] == 2300
    assert report["main_violations"] == 0


def test_tangent_q9_report():
    code, out = run(["tangent", "--p", "3", "--n", "2"])
    assert code == 0
    report = json.loads(out)
    assert report["group"]["tag"] == "PGL(2,3)"
    assert report["group"]["order"] == 24


def test_classify_degenerate_is_structured_not_failure():
    code, out = run(["classify", "--p", "7", "--n", "1",
                     "--points", "[1,0,0];[0,1,0];[0,0,1]"])
    assert code == 0
    report = json.loads(out)
    assert report["error"] == "DegenerateInput"


def test_classify_collinear_verdict():
    code, out = run(["classify", "--p", "5", "--n", "1",
                     "--points", "[0,1,0];[0,1,1];[0,1,2]"])
    assert code == 0
    report = json.loads(out)
    assert report["class"] == "Collinear"


def test_parse_errors_exit_2():
    code, _ = run(["classify", "--p", "5", "--points", "[1,0];[0,1,0];[0,0,1]"])
    assert code == 2
    code, _ = run(["classify", "--p", "5", "--points", "[9,0,1];[0,1,0];[1,0,1]"])
    assert code == 2
    code, _ = run(["classify", "--p", "4", "--points", "[1,0,1];[0,1,0];[1,1,1]"])
    assert code == 2
    code, _ = run(["enumerate", "--p", "5", "--format", "dot"])
    assert code == 2  # enumeration tables have no DOT form


def test_usage_errors_exit_2():
    assert run(["classify", "--p", "5"])[0] == 2  # missing --points
    assert run(["geometry", "--p", "5"])[0] == 2
    assert run(["enumerate", "--p", "5", "--mode", "sample"])[0] == 2
    assert run(["triality", "--p", "5", "--n", "2"])[0] == 2
    # tangent rejects off-conic or repeated conic points as bad input
    assert run(["tangent", "--p", "5", "--points",
                "[0,1,1];[1,0,0];[0,0,1]"])[0] == 2
    assert run(["geometry", "--p", "5", "--points",
                "[1,0,0];[0,1,1];[1,1,0]"])[0] == 2  # (1,0,0) is on the conic
    assert run(["geometry", "--p", "5", "--points",
                "[1,0,1];[2,0,2];[0,1,0]"])[0] == 2  # [1,0,1] and [2,0,2] are one point


def test_budget_exceeded_exit_3():
    code, _ = run(["classify", "--p", "5", "--points",
                   "[0,1,1];[1,0,1];[1,1,0]", "--budget", "2"])
    assert code == 3


def test_verify_main_budget_exit_3():
    # C(25, 3) = 2300 triples at q = 5, over a budget of 100
    code, out = run(["verify-main", "--p", "5", "--budget", "100"])
    assert code == 3
    assert out == ""


def test_verify_main_negative_sample_exit_2():
    code, out = run(["verify-main", "--p", "5", "--mode", "sample", "--sample", "-1"])
    assert code == 2
    assert out == ""


def test_experiment_tau_negative_sample_exit_2():
    code, out = run(["experiment-tau", "--p", "3", "--n", "3", "--sample", "-2"])
    assert code == 2
    assert out == ""


def test_experiment_psl_sample_mode_without_size_exit_2():
    code, out = run(["experiment-psl", "--p", "5", "--mode", "sample"])
    assert code == 2
    assert out == ""


def test_jobs_below_one_exit_2():
    for jobs in ("0", "-1"):
        code, out = run(["verify-main", "--p", "3", "--jobs", jobs])
        assert code == 2
        assert out == ""


def test_jobs_outside_full_mode_exit_2(monkeypatch):
    # the flag check fires before any sweep, so nothing forks
    def no_sweep(*args, **kwargs):
        raise AssertionError("a sweep was started")

    monkeypatch.setattr(cli.triangles, "enumerate_triples", no_sweep)
    for mode in (["--mode", "orbit-reps"], ["--mode", "sample", "--sample", "5"]):
        for command in ("verify-main", "enumerate"):
            code, out = run([command, "--p", "3", "--jobs", "2", *mode])
            assert code == 2
            assert out == ""


def test_classify_zero_budget_exit_2():
    code, out = run(["classify", "--p", "5", "--points",
                     "[0,1,1];[1,0,1];[1,1,0]", "--budget", "0"])
    assert code == 2
    assert out == ""


def test_geometry_zero_budget_exit_2():
    code, out = run(["geometry", "--p", "5", "--points",
                     "[0,1,1];[1,0,1];[1,1,0]", "--budget", "0"])
    assert code == 2
    assert out == ""


def test_byte_identical_reports():
    args = ["enumerate", "--p", "3", "--n", "1", "--mode", "full"]
    _, out1 = run(args)
    _, out2 = run(args)
    assert out1 == out2
    args = ["enumerate", "--p", "3", "--mode", "sample", "--sample", "30",
            "--seed", "9"]
    _, s1 = run(args)
    _, s2 = run(args)
    assert s1 == s2


def test_tsv_header_and_shape():
    code, out = run(["enumerate", "--p", "3", "--format", "tsv"])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "class\tgroup\tpsl\thypertope\tcount"
    assert all(len(line.split("\t")) == 5 for line in lines[1:])


def parse_dot(text):
    """Minimal DOT grammar check: graph block, node statements, edges over
    declared nodes."""
    m = re.fullmatch(r"graph\s+\w+\s*\{\n(.*)\n\}\n?", text, re.S)
    assert m, "not a graph block"
    nodes = set()
    edges = []
    for line in m.group(1).split("\n"):
        line = line.strip()
        if not line:
            continue
        node_m = re.fullmatch(r'"([\w]+)" \[shape=(circle|box|diamond)\];', line)
        edge_m = re.fullmatch(r'"([\w]+)" -- "([\w]+)";', line)
        assert node_m or edge_m, f"unparsable statement: {line!r}"
        if node_m:
            nodes.add(node_m.group(1))
        else:
            edges.append((edge_m.group(1), edge_m.group(2)))
    for u, v in edges:
        assert u in nodes and v in nodes
    return nodes, edges


def test_geometry_dot_roundtrip():
    code, out = run(["geometry", "--p", "3", "--points",
                     "[0,1,1];[1,0,1];[1,1,0]", "--format", "dot"])
    assert code == 0
    nodes, edges = parse_dot(out)
    assert nodes and edges


def test_geometry_json_schema():
    code, out = run(["geometry", "--p", "3", "--points",
                     "[0,1,1];[1,0,1];[1,1,0]"])
    assert code == 0
    report = json.loads(out)
    assert report["types"] == [0, 1, 2]
    assert len(report["counts"]) == 3
    assert all(len(row) == 4 for row in report["incidence"])


def test_atomic_write(tmp_path):
    out = tmp_path / "report.json"
    code, _ = run(["tangent", "--p", "5", "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["group"]["order"] == 60
    leftovers = [p for p in tmp_path.iterdir() if p.name.startswith(".conictopes-")]
    assert not leftovers


def test_nonlinear_cli():
    code, out = run(["nonlinear-pgl", "--p", "5"])
    assert code == 0
    report = json.loads(out)
    assert report["group"]["order"] == 120
    # the recipe has no valid configuration at q = 3: reported, nonzero exit
    code, out = run(["nonlinear-pgl", "--p", "3"])
    assert code == 1
    assert json.loads(out)["error"] == "SearchExhausted"


def test_triality_cli():
    code, out = run(["triality", "--p", "3", "--n", "3"])
    assert code == 0
    report = json.loads(out)
    assert report["verified"] is True and report["candidates"] == 1


def test_experiment_psl_cli():
    code, out = run(["experiment-psl", "--p", "5"])
    assert code == 0
    report = json.loads(out)
    assert report["total_psl"] == sum(r["count"] for r in report["rows"])
    assert 0 < report["snsp_psl"] < report["total_psl"]


def test_modulus_override_flag():
    code, out = run(["tangent", "--p", "3", "--n", "2", "--modulus", "2,1,1"])
    assert code == 0
    report = json.loads(out)
    assert report["field"]["modulus"] == [2, 1, 1]
    assert report["group"]["order"] == 24
    code, _ = run(["tangent", "--p", "3", "--n", "2", "--modulus", "1,0,2,1"])
    assert code == 2  # wrong degree


def test_experiment_tau_cli():
    code, out = run(["experiment-tau", "--p", "3", "--n", "3",
                     "--sample", "1", "--seed", "1"])
    assert code == 0
    report = json.loads(out)
    assert report["orbits_total"] == 240
    assert len(report["rows"]) == 1
    row = report["rows"][0]
    assert {"class", "group", "trialities_found",
            "duality_witnesses_found"} <= set(row)
    code2, out2 = run(["experiment-tau", "--p", "3", "--n", "3",
                       "--sample", "1", "--seed", "1"])
    assert out == out2  # seeded runs are byte-identical


def test_classify_matches_library():
    from helpers import plane
    from conictopes.triangles import classify_triangle

    pl = plane(5)
    pts = ["[0,1,1]", "[1,0,1]", "[1,2,0]"]
    code, out = run(["classify", "--p", "5", "--points", ";".join(pts)])
    assert code == 0
    report = json.loads(out)
    rec = classify_triangle(pl, (0, 1, 1), (1, 0, 1), (1, 2, 0))
    assert report["class"] == rec.triangle_class
    assert report["group"] == rec.group_id.describe()
