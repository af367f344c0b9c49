import dataclasses
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
import gf2_oracle
from paleylift import css, fields, gf2, graphs, paley
from paleylift.cli import main

DATA = Path(__file__).parent / "data"


def run(*argv):
    return main([str(a) for a in argv])


def test_paley_emits_reference_matrix(tmp_path):
    out = tmp_path / "paley9"
    assert run("paley", 3, 2, "--modulus", "2,1,1", "--out", out) == 0
    emitted = (out / "adjacency.txt").read_bytes()
    assert emitted == (DATA / "paley9_adjacency.txt").read_bytes()


def test_paley_congruence_usage_error(tmp_path):
    assert run("paley", 5, 1, "--out", tmp_path / "x") == 2


def test_paley_reducible_modulus_usage_error(tmp_path):
    assert run("paley", 3, 2, "--modulus", "2,0,1", "--out", tmp_path / "x") == 2


def test_lift_t3(tmp_path):
    out = tmp_path / "lift3"
    assert run("lift", 3, "--out", out) == 0
    g = graphs.read_graph(out / "graph.json")
    assert (g.vertex_count, g.edge_count) == (16, 60)
    adj = (out / "adjacency.txt").read_text().splitlines()
    assert adj[0] == "16 16"
    manifest = json.loads((out / "manifest.json").read_text())
    assert str(out / "rotation.json") in manifest["outputs"]


def test_lift_t2_usage_error(tmp_path):
    assert run("lift", 2, "--out", tmp_path / "x") == 2


def test_lift_t4(tmp_path):
    out = tmp_path / "lift4"
    assert run("lift", 4, "--out", out) == 0
    g = graphs.read_graph(out / "graph.json")
    assert (g.vertex_count, g.edge_count) == (32, 248)


def test_manifest_digests(tmp_path):
    out = tmp_path / "paley9"
    assert run("paley", 3, 2, "--out", out) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    for path, digest in manifest["outputs"].items():
        actual = "sha256:" + hashlib.sha256(Path(path).read_bytes()).hexdigest()
        assert actual == digest


def read_golden_digests():
    """data/golden.sha256, in sha256sum format, as {directory: {file: sha256}}:
    the builders' artifacts and the witnesses of the README's two bundles."""
    golden = {}
    for line in (DATA / "golden.sha256").read_text().splitlines():
        digest, rel = line.split()
        directory, name = rel.split("/")
        golden.setdefault(directory, {})[name] = digest
    return golden


GOLDEN = read_golden_digests()
PALEY9 = ("paley", 3, 2, "--modulus", "2,1,1")


def _without_alist(digests):
    return {name: d for name, d in digests.items() if name != "adjacency.alist"}


# each builder's artifacts; under --format alist the same files plus
# adjacency.alist
BUILDER_DIGESTS = [
    (PALEY9, _without_alist(GOLDEN["paley9"])),
    (PALEY9 + ("--format", "alist"), GOLDEN["paley9"]),
    (("lift", 3), _without_alist(GOLDEN["lift3"])),
    (("lift", 3, "--format", "alist"), GOLDEN["lift3"]),
]


def test_builder_outputs_byte_identical(tmp_path):
    """Two runs of each builder write the same pinned bytes, and each
    manifest lists exactly the artifacts written."""
    for i, (argv, digests) in enumerate(BUILDER_DIGESTS):
        for out in (tmp_path / str(i) / "a", tmp_path / str(i) / "b"):
            assert run(*argv, "--out", out) == 0
            manifest = json.loads((out / "manifest.json").read_text())
            assert sorted(manifest["outputs"]) == sorted(str(out / name) for name in digests)
            for name, digest in digests.items():
                assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, \
                    (argv, name)


@pytest.mark.parametrize("argv", [("paley", 3, 2), ("lift", 3)])
def test_builder_manifest_times_build_and_write(tmp_path, argv):
    assert run(*argv, "--out", tmp_path) == 0
    timings = json.loads((tmp_path / "manifest.json").read_text())["timings"]
    assert sorted(timings) == ["build", "write"]
    assert all(isinstance(v, float) and v >= 0 for v in timings.values())


def test_import_and_paley_leave_numpy_unloaded(tmp_path):
    """numpy is imported lazily, by the lift's closed-form blocks alone."""
    script = ("import sys\n"
              "from paleylift.cli import main\n"
              f"assert main(['paley', '3', '2', '--out', {str(tmp_path / 'p')!r}]) == 0\n"
              "sys.exit('numpy' in sys.modules)\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    result = subprocess.run([sys.executable, "-c", script], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr or "numpy was imported"


GOLDEN_BUILDS = {
    "paley9": PALEY9 + ("--format", "alist"), "lift3": ("lift", 3, "--format", "alist"),
    "paley257": ("paley", 257, 1), "paley289": ("paley", 17, 2),
    "paley521": ("paley", 521, 1), "paley529": ("paley", 23, 2, "--format", "alist"),
    "lift5": ("lift", 5), "lift6": ("lift", 6),
}


def _check_golden(root, directory):
    for name, digest in GOLDEN[directory].items():
        assert hashlib.sha256((root / directory / name).read_bytes()).hexdigest() == digest, \
            (directory, name)


def test_builder_outputs_match_golden_digests(tmp_path):
    """The builders (default moduli unless given) and distance on the README's
    [[18,2,3]] and [[60,30,3]] bundles reproduce every file of
    data/golden.sha256 byte for byte."""
    for name, argv in GOLDEN_BUILDS.items():
        assert run(*argv, "--out", tmp_path / name) == 0
    # the whole-row JSON writer reproduces what it reads back
    text = (tmp_path / "paley529" / "graph.json").read_text()
    assert graphs.graph_to_json(graphs.graph_from_json(text)) == text
    rot18 = tmp_path / "paley9_rotation.json"
    assert run("embed-search", tmp_path / "paley9" / "graph.json", "--genus", 1,
               "--out", rot18) == 0
    for bundle, graph_dir, rotation, family, kprime in (
            ("code18", "paley9", rot18, "paley", 0),
            ("code60", "lift3", tmp_path / "lift3" / "rotation.json", "voltage", 1)):
        assert run("code", tmp_path / graph_dir / "graph.json", "--rotation", rotation,
                   "--family", family, "--kprime", kprime, "--out", tmp_path / bundle) == 0
        assert run("distance", tmp_path / bundle, "--max-weight", 3) == 0
    assert set(GOLDEN) == set(GOLDEN_BUILDS) | {"code18", "code60"}
    for directory in GOLDEN:
        _check_golden(tmp_path, directory)
    # w_max above d: the search bound falls to the incumbent witness's weight
    assert run("distance", tmp_path / "code60", "--max-weight", 5) == 0
    _check_golden(tmp_path, "code60")


def test_code_bundles_byte_identical(tmp_path):
    paley_dir = tmp_path / "p"
    rot = tmp_path / "rot.json"
    run("paley", 3, 2, "--modulus", "2,1,1", "--out", paley_dir)
    run("embed-search", paley_dir / "graph.json", "--genus", 1, "--out", rot)
    a, b = tmp_path / "ba", tmp_path / "bb"
    for out in (a, b):
        assert run("code", paley_dir / "graph.json", "--rotation", rot,
                   "--out", out) == 0
    for name in ("hx.txt", "hz.txt", "code.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def distance_line(capsys, *argv):
    """The conclusion that `distance` prints for argv."""
    capsys.readouterr()
    assert run("distance", *argv) == 0
    return capsys.readouterr().out.splitlines()[-1]


def test_full_pipeline_embedding(tmp_path, capsys):
    paley_dir = tmp_path / "paley9"
    rot = tmp_path / "rot.json"
    bundle = tmp_path / "bundle"
    assert run("paley", 3, 2, "--modulus", "2,1,1", "--out", paley_dir) == 0
    assert run("embed-search", paley_dir / "graph.json", "--genus", 1,
               "--out", rot) == 0
    assert run("code", paley_dir / "graph.json", "--rotation", rot,
               "--family", "paley", "--kprime", 0, "--out", bundle) == 0
    payload = json.loads((bundle / "code.json").read_text())
    assert (payload["n"], payload["k"], payload["genus"]) == (18, 2, 1)
    assert distance_line(capsys, bundle, "--max-weight", 2) == \
        "distance: d > 2 (searched weight <= 2)"
    assert distance_line(capsys, bundle, "--max-weight", 3) == \
        "distance: d = 3 (searched weight <= 3)"
    payload = json.loads((bundle / "code.json").read_text())
    assert payload["d_found"] == 3
    assert (bundle / "dz_witness.json").exists()
    assert run("verify", bundle) == 0


def test_full_pipeline_lift(tmp_path, capsys):
    lift_dir = tmp_path / "lift3"
    bundle = tmp_path / "bundle60"
    assert run("lift", 3, "--out", lift_dir) == 0
    assert run("code", lift_dir / "graph.json",
               "--rotation", lift_dir / "rotation.json",
               "--family", "voltage", "--kprime", 1, "--out", bundle) == 0
    payload = json.loads((bundle / "code.json").read_text())
    assert (payload["n"], payload["k"], payload["genus"]) == (60, 30, 15)
    assert distance_line(capsys, bundle, "--max-weight", 1) == \
        "distance: d > 1 (searched weight <= 1)"
    assert distance_line(capsys, bundle, "--max-weight", 2) == \
        "distance: d > 2 (searched weight <= 2)"
    payload = json.loads((bundle / "code.json").read_text())
    assert payload["d_found"] is None
    assert payload["d_lower"] == 3
    assert distance_line(capsys, bundle, "--max-weight", 3) == \
        "distance: d = 3 (searched weight <= 3)"
    payload = json.loads((bundle / "code.json").read_text())
    assert (payload["d_found"], payload["d_lower"]) == (3, 3)
    # distance leaves hx.txt and hz.txt alone
    manifest = json.loads((bundle / "manifest.json").read_text())
    assert sorted(manifest["outputs"]) == sorted(
        str(bundle / name) for name in ("code.json", "dz_witness.json", "dx_witness.json"))
    assert run("verify", bundle) == 0


def test_distance_manifest_records_work_counters(tmp_path):
    lift_dir, bundle = tmp_path / "lift3", tmp_path / "bundle60"
    assert run("lift", 3, "--out", lift_dir) == 0
    assert run("code", lift_dir / "graph.json",
               "--rotation", lift_dir / "rotation.json", "--out", bundle) == 0
    assert run("distance", bundle, "--max-weight", 3) == 0
    report = css.distance_search(css.read_bundle(bundle), 3)
    counters = json.loads((bundle / "manifest.json").read_text())["counters"]
    assert counters == {"dz": dataclasses.asdict(report.dz_counters),
                        "dx": dataclasses.asdict(report.dx_counters)}
    assert sorted(counters["dz"]) == ["levels", "membership", "narrowed", "offers",
                                      "roots"]
    assert counters["dz"]["roots"] > 0 and counters["dx"]["membership"] > 0


def test_each_command_eliminates_each_matrix_at_most_once(tmp_path, monkeypatch):
    """gf2._eliminate runs only for a rank or a membership test, and once per
    matrix: code takes no rank (k = 2 * genus), verify takes both and its
    witnesses reuse them; distance settles w = 2 on the columns, and at
    w = 3 each side's first membership test reduces the other side's
    matrix."""
    calls = []
    eliminate = gf2._eliminate
    monkeypatch.setattr(gf2, "_eliminate",
                        lambda rows: calls.append(rows) or eliminate(rows))

    def eliminations(*argv):
        calls.clear()
        assert run(*argv) == 0
        assert len(set(calls)) == len(calls)   # no matrix twice
        return len(calls)

    lift_dir, bundle = tmp_path / "lift3", tmp_path / "bundle60"
    assert run("lift", 3, "--out", lift_dir) == 0
    assert eliminations("code", lift_dir / "graph.json", "--rotation",
                        lift_dir / "rotation.json", "--out", bundle) == 0
    assert eliminations("distance", bundle, "--max-weight", 2) == 0
    assert eliminations("distance", bundle, "--max-weight", 3) == 2
    assert (bundle / "dz_witness.json").exists() and (bundle / "dx_witness.json").exists()
    assert eliminations("verify", bundle) == 2


def test_builders_transpose_nothing(tmp_path, monkeypatch):
    """paley and lift, without --format alist, hand their graphs the masks
    and rows they compute: nothing is transposed to check symmetry."""
    def transpose(self):
        raise AssertionError("transpose called")

    monkeypatch.setattr(gf2.BinaryMatrix, "transpose", transpose)
    for p, r in ((3, 2), (17, 1), (5, 2), (7, 2), (3, 4), (97, 1)):
        assert run("paley", p, r, "--out", tmp_path / f"paley{p ** r}") == 0
    for t in range(3, 7):
        assert run("lift", t, "--out", tmp_path / f"lift{t}") == 0


def test_code_multiplies_and_transposes_nothing(tmp_path):
    """code writes k = 2 * genus: neither gf2.multiply nor
    BinaryMatrix.transpose runs, under any name a module imported it by.
    verify, on the same bundle, runs both."""
    watched = {gf2.multiply.__code__: "multiply",
               gf2.BinaryMatrix.transpose.__code__: "transpose"}

    def called(*argv):
        seen = set()

        def profile(frame, event, arg):
            if event == "call" and frame.f_code in watched:
                seen.add(watched[frame.f_code])

        sys.setprofile(profile)
        try:
            assert run(*argv) == 0
        finally:
            sys.setprofile(None)
        return seen

    for t in (3, 4):
        work = tmp_path / f"lift{t}"
        assert run("lift", t, "--out", work) == 0
        assert called("code", work / "graph.json", "--rotation", work / "rotation.json",
                      "--family", "voltage", "--kprime", 2 ** (t - 2) - 1,
                      "--out", work / "bundle") == set()
        assert called("verify", work / "bundle") == {"multiply", "transpose"}


def test_code_requires_exactly_one_mode(tmp_path):
    paley_dir = tmp_path / "p"
    assert run("paley", 3, 2, "--out", paley_dir) == 0
    with pytest.raises(SystemExit) as exc:
        run("code", paley_dir / "graph.json", "--out", tmp_path / "b1")
    assert exc.value.code == 2


def test_verify_flags_corruption(tmp_path):
    paley_dir = tmp_path / "p"
    rot = tmp_path / "rot.json"
    bundle = tmp_path / "bundle"
    run("paley", 3, 2, "--modulus", "2,1,1", "--out", paley_dir)
    run("embed-search", paley_dir / "graph.json", "--genus", 1, "--out", rot)
    run("code", paley_dir / "graph.json", "--rotation", rot, "--out", bundle)
    lines = (bundle / "hz.txt").read_text().splitlines()
    row = lines[1].split()
    row[0] = "1" if row[0] == "0" else "0"
    lines[1] = " ".join(row)
    (bundle / "hz.txt").write_text("\n".join(lines) + "\n")
    assert run("verify", bundle) == 1


def test_verify_names_the_css_row_pair(lift3_workdir, tmp_path, capsys):
    """One flipped bit of hz fails the CSS condition, which names the first
    row pair that overlaps oddly, and with it the k line."""
    bundle = tmp_path / "bundle"
    shutil.copytree(lift3_workdir / "bundle", bundle)
    (bundle / "hz.txt").write_text(_flip_first_bit((bundle / "hz.txt").read_text()))
    capsys.readouterr()
    assert run("verify", bundle) == 1
    lines = capsys.readouterr().out.splitlines()
    # column 0 is the edge at vertex 0 with the lowest other end
    assert ("  FAIL  css condition hx hz^T = 0: hx hz^T != 0: "
            "row 0 of hx and row 0 of hz overlap oddly") in lines
    assert "  FAIL  k = n - rank(hx) - rank(hz)" in lines


def capped(script, argv):
    """Command line and environment of a child process that caps its own
    address space at 1 GiB, imports the CLI's main and runs script with
    argv, so that an input sizing a large allocation fails the calling test
    instead of exhausting memory."""
    prologue = ("import resource, sys\n"
                "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
                "from paleylift.cli import main\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return [sys.executable, "-c", prologue + script, *map(str, argv)], env


def run_capped(*argv):
    """The CLI in a capped child process (see capped)."""
    command, env = capped("sys.exit(main(sys.argv[1:]))\n", argv)
    return subprocess.run(command, env=env, capture_output=True, text=True, timeout=60)


def test_builders_refuse_graphs_over_the_vertex_limit(tmp_path):
    """Sizes past graphs.MAX_VERTICES exit 2 before any field, table or
    graph is built."""
    for argv in (("lift", "64"), ("paley", "3", "12"), ("lift", "10"), ("paley", "1033", "1")):
        result = run_capped(*argv, "--out", tmp_path / "x")
        assert result.returncode == 2, (argv, result.stderr)
        assert "exceeds the limit of 1024" in result.stderr, argv
    assert not (tmp_path / "x").exists()


def test_vertex_limit_boundary():
    """The ladder's top, the lift at t = 9 with 1024 vertices, and Paley-1009
    fit; one vertex more does not."""
    assert graphs.MAX_VERTICES == 1024
    graphs.require_vertex_count(2, 10)
    graphs.require_vertex_count(1009, 1)
    for base, exponent in ((1025, 1), (2, 11), (3, 7), (2, 10**18)):
        with pytest.raises(ValueError, match="exceeds the limit"):
            graphs.require_vertex_count(base, exponent)


def test_verify_empty_bundle_usage_error(tmp_path):
    assert run("verify", tmp_path / "nothing") == 2


def test_code_bad_graph_file_usage_error(tmp_path, capsys):
    bad, rot = tmp_path / "bad.json", tmp_path / "rot.json"
    for graph, rotations, message in (
            ('{"vertex_count": 2, "edges": [[0, 0]]}', '{"rotations": [[], []]}', ""),
            ('{"vertex_count":3,"edges":[[0,1,2]]}', '{"rotations": [[], [], []]}', ""),
            # connected by convention, but it has no faces to trace
            ('{"vertex_count":0,"edges":[]}', '{"rotations":[]}',
             "connected graph with an edge"),
            # connected, but it has no dart to trace a face from
            ('{"vertex_count":1,"edges":[]}', '{"rotations":[[]]}',
             "connected graph with an edge")):
        bad.write_text(graph)
        rot.write_text(rotations)
        capsys.readouterr()
        assert run("code", bad, "--rotation", rot, "--out", tmp_path / "b") == 2, graph
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err, graph
    assert not (tmp_path / "b").exists()


def test_verify_unreadable_matrix_fails(tmp_path):
    paley_dir = tmp_path / "p"
    rot = tmp_path / "rot.json"
    bundle = tmp_path / "bundle"
    run("paley", 3, 2, "--modulus", "2,1,1", "--out", paley_dir)
    run("embed-search", paley_dir / "graph.json", "--genus", 1, "--out", rot)
    run("code", paley_dir / "graph.json", "--rotation", rot, "--out", bundle)
    (bundle / "hz.txt").write_text("garbage\n")
    assert run("verify", bundle) == 1


def test_embed_search_budget_exit(tmp_path):
    paley_dir = tmp_path / "p"
    run("paley", 3, 2, "--out", paley_dir)
    assert run("embed-search", paley_dir / "graph.json", "--genus", 1,
               "--budget", 10, "--out", tmp_path / "r.json") == 3


def test_embed_search_rejects_vertex_transitive(tmp_path):
    paley_dir = tmp_path / "p"
    assert run("paley", 3, 2, "--out", paley_dir) == 0
    with pytest.raises(SystemExit) as exc:
        run("embed-search", paley_dir / "graph.json", "--genus", 1,
            "--vertex-transitive", "--out", tmp_path / "r.json")
    assert exc.value.code == 2
    assert not (tmp_path / "r.json").exists()


def test_embed_search_reports_the_genus_and_faces_it_searched_for(tmp_path, capsys):
    """The README's Paley-9 search: its witness after 1,724 nodes has the
    target genus and one face per vertex."""
    paley_dir = tmp_path / "p"
    assert run(*PALEY9, "--out", paley_dir) == 0
    capsys.readouterr()
    assert run("embed-search", paley_dir / "graph.json", "--genus", 1,
               "--budget", 1724, "--out", tmp_path / "r.json") == 0
    assert "found rotation system: genus 1, 9 faces (" in capsys.readouterr().out


def test_embed_search_absence_report(tmp_path):
    c4 = graphs.Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    gpath = tmp_path / "c4.json"
    graphs.write_graph(c4, gpath)
    out = tmp_path / "rot.json"
    assert run("embed-search", gpath, "--genus", 0, "--out", out) == 0
    payload = json.loads(out.read_text())
    assert payload["found"] is False


def test_table_voltage(capsys):
    assert run("table", "--family", "voltage", "--kprime-max", 2) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert "60" in lines[1] and "30" in lines[1] and "0.5000" in lines[1]


def test_table_paley_csv(capsys):
    assert run("table", "--family", "paley", "--kprime-max", 1, "--csv") == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out[0] == "kprime,m,genus,n,k,rate"
    assert out[1].startswith("0,9,1,18,2,")
    assert out[2].startswith("1,17,18,68,36,")


def test_alist_export(tmp_path):
    out = tmp_path / "p"
    assert run("paley", 3, 2, "--out", out, "--format", "alist") == 0
    lines = (out / "adjacency.alist").read_text().splitlines()
    assert lines[0] == "9 9"
    assert lines[1] == "4 4"
    # column weights then row weights: 4-regular
    assert lines[2].split() == ["4"] * 9
    assert lines[3].split() == ["4"] * 9


def test_code_alist_export_matches_oracle(lift3_workdir, tmp_path):
    out = tmp_path / "bundle"
    assert run("code", lift3_workdir / "graph.json", "--rotation",
               lift3_workdir / "rotation.json", "--format", "alist", "--out", out) == 0
    code = css.read_bundle(out)
    manifest = json.loads((out / "manifest.json").read_text())
    for name, matrix in (("hx", code.hx), ("hz", code.hz)):
        assert (out / f"{name}.alist").read_text() == gf2_oracle.to_alist(matrix)
        assert str(out / f"{name}.alist") in manifest["outputs"]


def test_code_removes_the_witnesses_and_exports_of_an_earlier_code(tmp_path, capsys):
    """code on the t = 4 lift, into the bundle of the t = 3 code with its
    alist exports and witnesses, leaves a bundle of the t = 4 code alone."""
    for t in (3, 4):
        assert run("lift", t, "--out", tmp_path / f"lift{t}") == 0
    bundle = tmp_path / "bundle"
    assert run("code", tmp_path / "lift3" / "graph.json", "--rotation",
               tmp_path / "lift3" / "rotation.json", "--format", "alist",
               "--out", bundle) == 0
    assert run("distance", bundle, "--max-weight", 3) == 0
    assert run("code", tmp_path / "lift4" / "graph.json", "--rotation",
               tmp_path / "lift4" / "rotation.json", "--family", "voltage",
               "--kprime", 3, "--out", bundle) == 0
    assert sorted(p.name for p in bundle.iterdir()) == [
        "code.json", "hx.txt", "hz.txt", "manifest.json"]
    capsys.readouterr()
    assert run("verify", bundle) == 0
    assert "witness" not in capsys.readouterr().out


def test_builder_removes_an_earlier_alist_export(tmp_path):
    out = tmp_path / "out"
    assert run("lift", 3, "--format", "alist", "--out", out) == 0
    assert run(*PALEY9, "--out", out) == 0
    assert not (out / "adjacency.alist").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert sorted(manifest["outputs"]) == sorted(
        str(out / name) for name in _without_alist(GOLDEN["paley9"]))


def test_builder_removes_an_earlier_rotation(tmp_path, capsys):
    """paley into a lift's directory leaves no rotation of the lift beside
    the Paley graph, so code names the missing file instead of reading it."""
    out = tmp_path / "out"
    assert run("lift", 3, "--out", out) == 0
    assert run("paley", 3, 2, "--out", out) == 0
    assert not (out / "rotation.json").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert sorted(manifest["outputs"]) == [str(out / "adjacency.txt"),
                                           str(out / "graph.json")]
    capsys.readouterr()
    assert run("code", out / "graph.json", "--rotation", out / "rotation.json",
               "--out", tmp_path / "bundle") == 2
    assert str(out / "rotation.json") in capsys.readouterr().err


def test_verify_checks_each_alist_export(lift3_workdir, tmp_path, capsys):
    """One PASS or FAIL line per alist export that the bundle holds, and
    none for a bundle without exports."""
    bundle = tmp_path / "bundle"
    assert run("code", lift3_workdir / "graph.json", "--rotation",
               lift3_workdir / "rotation.json", "--format", "alist", "--out", bundle) == 0
    capsys.readouterr()
    assert run("verify", bundle) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [ln for ln in lines if "alist" in ln] == [
        "  PASS  hx.alist matches hx.txt", "  PASS  hz.alist matches hz.txt"]
    (bundle / "hx.alist").write_text("garbage\n")
    (bundle / "hz.alist").unlink()
    assert run("verify", bundle) == 1
    lines = capsys.readouterr().out.splitlines()
    assert [ln for ln in lines if "alist" in ln] == ["  FAIL  hx.alist matches hx.txt"]
    assert run("verify", lift3_workdir / "bundle") == 0
    assert "alist" not in capsys.readouterr().out


def test_usage_error_exit_code_from_argparse():
    with pytest.raises(SystemExit) as exc:
        main(["table", "--family", "nonsense", "--kprime-max", "2"])
    assert exc.value.code == 2


@pytest.fixture(scope="module")
def lift3_workdir(tmp_path_factory):
    """lift 3 outputs plus a bundle/ holding a [[60,30,3]] code and witnesses."""
    work = tmp_path_factory.mktemp("lift3")
    assert run("lift", 3, "--out", work) == 0
    assert run("code", work / "graph.json", "--rotation", work / "rotation.json",
               "--out", work / "bundle") == 0
    assert run("distance", work / "bundle", "--max-weight", 3) == 0
    return work


def _flip_first_bit(text):
    """Matrix text with its first entry flipped: one column of weight 1 or 3."""
    header, first, rest = text.split("\n", 2)
    return "\n".join([header, ("1" if first[0] == "0" else "0") + first[1:], rest])


def _pad_first_one(text):
    """Matrix text whose first 1 in the first row is written as the token 01."""
    header, first, rest = text.split("\n", 2)
    tokens = first.split()
    tokens[tokens.index("1")] = "01"
    return "\n".join([header, " ".join(tokens), rest])


def _drop_last_column(text):
    """Matrix text with its last column removed: one column fewer than n."""
    header, *rows = text.splitlines()
    count, cols = header.split()
    return "\n".join([f"{count} {int(cols) - 1}"]
                     + [row.rsplit(" ", 1)[0] for row in rows]) + "\n"


def _sign_header(text):
    """Matrix text whose header row count is written with a + sign."""
    return "+" + text


def _argv(command, work):
    """The command line of one command on the copy `work` of lift3_workdir."""
    return {
        "code": ("code", work / "graph.json", "--rotation", work / "rotation.json",
                 "--out", work / "out"),
        "verify": ("verify", work / "bundle"),
        "distance": ("distance", work / "bundle", "--max-weight", 1),
        "embed-search": ("embed-search", work / "graph.json", "--genus", 0,
                         "--out", work / "out" / "found.json"),
        "paley": ("paley", 3, 2, "--out", work / "out"),
        "lift": ("lift", 3, "--out", work / "out"),
    }[command]


@pytest.mark.parametrize("target, content, command, expected", [
    ("graph.json", '{"vertex_count":"3","edges":[]}', "code", 2),
    ("graph.json", "[]", "code", 2),
    ("graph.json", '{"vertex_count":3,"edges":[1]}', "code", 2),
    ("graph.json", '{"vertex_count":3,"edges":[[true,1]]}', "code", 2),
    ("graph.json", '{"vertex_count":3,"edges":[[1,0],[0,1]]}', "code", 2),
    ("rotation.json", '{"rotations":[1,2]}', "code", 2),
    ("rotation.json", '{"rotations":[[[0,"x"]]]}', "code", 2),
    ("bundle/dz_witness.json", "{", "verify", 1),
    ("bundle/dz_witness.json", '{"side":"Z"}', "verify", 1),
    ("bundle/dz_witness.json", '{"side":"Z","weight":1,"support":["a"]}',
     "verify", 1),
    ("bundle/code.json", '{"n":"x","k":30,"d_found":3,"d_lower":3,'
     '"family":"custom","kprime":null,"genus":15}', "verify", 1),
    ("bundle/code.json", '{"n":"x","k":30,"d_found":3,"d_lower":3,'
     '"family":"custom","kprime":null,"genus":15}', "distance", 2),
    # the bundle's witnesses have weight 3
    ("bundle/code.json", '{"n":60,"k":30,"d_found":2,"d_lower":2,'
     '"family":"voltage","kprime":1,"genus":15}', "verify", 1),
    ("bundle/code.json", '{"n":60,"k":30,"d_found":null,"d_lower":7,'
     '"family":"voltage","kprime":1,"genus":15}', "verify", 1),
    # family labels that the [[60,30]] code does not have
    ("bundle/code.json", '{"n":60,"k":30,"d_found":3,"d_lower":3,'
     '"family":"paley","kprime":7,"genus":15}', "verify", 1),
    ("bundle/code.json", '{"n":60,"k":30,"d_found":3,"d_lower":3,'
     '"family":"toric","kprime":1,"genus":15}', "verify", 1),
    ("graph.json", '{"vertex_count":4,"edges":[[0,1],[2,3]]}', "embed-search", 2),
    ("graph.json", '{"vertex_count":1,"edges":[]}', "embed-search", 2),
    ("bundle/hz.txt", _flip_first_bit, "distance", 2),
    ("bundle/hz.txt", _flip_first_bit, "verify", 1),
    ("bundle/hz.txt", _pad_first_one, "distance", 2),
    ("bundle/hz.txt", _pad_first_one, "verify", 1),
    ("bundle/hz.txt", _sign_header, "distance", 2),
    ("bundle/hz.txt", _sign_header, "verify", 1),
    ("bundle/hz.txt", _drop_last_column, "distance", 2),
    ("bundle/hz.txt", _drop_last_column, "verify", 1),
    # --out is an existing file, or (for embed-search) a path under one
    ("out", "", "paley", 2),
    ("out", "", "lift", 2),
    ("out", "", "code", 2),
    ("out", "", "embed-search", 2),
])
def test_malformed_input_exits_without_traceback(lift3_workdir, tmp_path,
                                                 target, content, command, expected):
    work = tmp_path / "w"
    shutil.copytree(lift3_workdir, work)
    path = work / target
    path.write_text(content(path.read_text()) if callable(content) else content)
    assert run(*_argv(command, work)) == expected


NESTED = "[" * 100_000 + "]" * 100_000
PALEY9_GRAPH = graphs.graph_to_json(paley.build_paley(fields.make_field(3, 2)).graph)


@pytest.mark.parametrize("target, content, command, expected, message", [
    # too deep for the JSON decoder's recursion: one case per command that reads JSON
    pytest.param("graph.json", NESTED, "code", 2, "error: ", id="code-nested-graph"),
    pytest.param("rotation.json", NESTED, "code", 2, "error: ", id="code-nested-rotation"),
    pytest.param("graph.json", NESTED, "embed-search", 2, "error: ",
                 id="embed-search-nested-graph"),
    pytest.param("bundle/code.json", NESTED, "distance", 2, "error: ",
                 id="distance-nested-code-json"),
    pytest.param("bundle/code.json", NESTED, "verify", 1, "bundle unreadable: ",
                 id="verify-nested-code-json"),
    pytest.param("bundle/dz_witness.json", NESTED, "verify", 1,
                 "FAIL  dz witness re-verifies", id="verify-nested-witness"),
    ("rotation.json", '{"rotations":[[[0,2]]]}', "code", 2, "error: "),
    # the t = 3 lift's rotation read against another graph
    pytest.param("graph.json", PALEY9_GRAPH, "code", 2, "error: 16 rotations for 9 vertices",
                 id="code-paley9-graph-lift3-rotation"),
])
def test_refused_json_names_the_error_without_traceback(lift3_workdir, tmp_path, target,
                                                        content, command, expected, message):
    work = tmp_path / "w"
    shutil.copytree(lift3_workdir, work)
    (work / target).write_text(content)
    result = run_capped(*_argv(command, work))
    assert result.returncode == expected, result.stderr
    assert message in result.stdout + result.stderr
    assert "Traceback" not in result.stderr


@pytest.mark.parametrize("targets, content, command, expected", [
    # 200000 rows of 200000 bytes: 40 GB
    (["graph.json"], '{"vertex_count":200000,"edges":[]}', "code", 2),
    (["graph.json"], '{"vertex_count":200000,"edges":[]}', "embed-search", 2),
    # a gap of 2 * 10^10 spaces, a mask or list of 2 * 10^10 columns, a tuple of as many rows
    (["bundle/hx.txt", "bundle/hz.txt"], "1 20000000000\n0\n", "verify", 1),
    (["bundle/hx.txt", "bundle/hz.txt"], "1 20000000000\n0\n", "distance", 2),
    (["bundle/hx.txt", "bundle/hz.txt"], "0 20000000000\n", "verify", 1),
    (["bundle/hx.txt", "bundle/hz.txt"], "0 20000000000\n", "distance", 2),
    (["bundle/hx.txt", "bundle/hz.txt"], "20000000000 0\n", "verify", 1),
])
def test_oversized_counts_exit_without_traceback(lift3_workdir, tmp_path,
                                                 targets, content, command, expected):
    # a count in a small file sizes nothing before the file shows it
    work = tmp_path / "w"
    shutil.copytree(lift3_workdir, work)
    for target in targets:
        (work / target).write_text(content)
    result = run_capped(*_argv(command, work))
    assert result.returncode == expected, result.stderr
    assert "Traceback" not in result.stderr


def test_verify_requires_each_witness_on_its_own_side(lift3_workdir, tmp_path, capsys):
    """A witness file of the other side checks no logical of this one."""
    for source, target in (("dx", "dz"), ("dz", "dx")):
        work = tmp_path / target
        shutil.copytree(lift3_workdir, work)
        shutil.copy(work / "bundle" / f"{source}_witness.json",
                    work / "bundle" / f"{target}_witness.json")
        capsys.readouterr()
        assert run("verify", work / "bundle") == 1, target
        assert f"  FAIL  {target} witness re-verifies" in capsys.readouterr().out


def _tampered(lift3_workdir, tmp_path, record=None, **witnesses):
    """A copy of lift3_workdir's [[60,30,3]] bundle, whose code.json takes
    the items of record and whose witness file of each side given as
    dz=/dx= is replaced by the (weight, support) pair given."""
    bundle = tmp_path / "bundle"
    shutil.copytree(lift3_workdir / "bundle", bundle)
    path = bundle / "code.json"
    path.write_text(json.dumps({**json.loads(path.read_text()), **(record or {})}))
    for name, (weight, support) in witnesses.items():
        (bundle / f"{name}_witness.json").write_text(json.dumps(
            {"side": name[1].upper(), "weight": weight, "support": sorted(support)}))
    return bundle


def _verify(capsys, bundle):
    """verify's exit status and stdout lines."""
    capsys.readouterr()
    status = run("verify", bundle)
    return status, capsys.readouterr().out.splitlines()


def _support(bits):
    return [j for j in range(bits.bit_length()) if bits >> j & 1]


def _witness(lift3_workdir, side):
    return json.loads((lift3_workdir / "bundle" / f"d{side}_witness.json").read_text())


def test_verify_fails_a_z_witness_that_is_a_face_boundary(lift3_workdir, tmp_path,
                                                          capsys):
    """A face boundary lies in ker H_X, but it is a stabilizer, not a logical."""
    face = _support(css.read_bundle(lift3_workdir / "bundle").hz.row_bits[0])
    bundle = _tampered(lift3_workdir, tmp_path, dz=(len(face), face))
    status, lines = _verify(capsys, bundle)
    assert status == 1
    assert "  FAIL  dz witness re-verifies" in lines
    assert "  PASS  d_found = lightest witness weight" in lines


def test_verify_bounds_d_lower_by_the_lightest_witness(lift3_workdir, tmp_path, capsys):
    """An X witness plus a disjoint vertex star is an X logical of weight
    3 + deg; with the weight-3 Z witness beside it, d_lower = 4 is false."""
    x = sum(1 << j for j in _witness(lift3_workdir, "x")["support"])
    star = next(row for row in css.read_bundle(lift3_workdir / "bundle").hx.row_bits
                if not row & x)
    heavy = _support(x ^ star)
    bundle = _tampered(lift3_workdir, tmp_path, {"d_lower": 4}, dx=(len(heavy), heavy))
    status, lines = _verify(capsys, bundle)
    assert status == 1
    assert "  PASS  dx witness re-verifies" in lines
    assert "  PASS  d_found = lightest witness weight" in lines
    assert "  FAIL  d_lower <= every witness weight" in lines


def test_verify_fails_a_d_found_above_a_witness_weight(lift3_workdir, tmp_path, capsys):
    status, lines = _verify(capsys, _tampered(lift3_workdir, tmp_path, {"d_found": 4}))
    assert status == 1
    assert "  FAIL  d_found = lightest witness weight" in lines
    assert "  PASS  d_lower <= every witness weight" in lines


def test_verify_fails_a_witness_whose_weight_disagrees_with_its_support(
        lift3_workdir, tmp_path, capsys):
    support = _witness(lift3_workdir, "z")["support"]
    bundle = _tampered(lift3_workdir, tmp_path, dz=(len(support) + 1, support))
    status, lines = _verify(capsys, bundle)
    assert status == 1
    assert "  FAIL  dz witness re-verifies" in lines


def test_verify_fails_a_custom_bundle_with_a_wrong_n(lift3_workdir, tmp_path, capsys):
    """No family label checks n for a custom code; the matrices' columns do."""
    bundle = _tampered(lift3_workdir, tmp_path, {"family": "custom", "n": 61})
    assert run("verify", bundle) == 1
    assert "code.json has n = 61" in capsys.readouterr().err


def test_verify_fails_a_custom_bundle_with_a_wrong_genus(lift3_workdir, tmp_path, capsys):
    bundle = _tampered(lift3_workdir, tmp_path, {"family": "custom", "genus": 14})
    status, lines = _verify(capsys, bundle)
    assert status == 1
    assert "  FAIL  k = 2 * genus" in lines
    assert "  PASS  family label matches (n, k, genus)" in lines


def test_code_refuses_a_family_label_the_code_does_not_have(lift3_workdir, tmp_path,
                                                            capsys):
    for family, kprime, message in (("voltage", 2, "has n, k, genus = 138, 92, 46"),
                                    ("paley", 0, "has n, k, genus = 18, 2, 1"),
                                    ("voltage", 0, "needs kprime >= 1")):
        capsys.readouterr()
        assert run("code", lift3_workdir / "graph.json", "--rotation",
                   lift3_workdir / "rotation.json", "--family", family,
                   "--kprime", kprime, "--out", tmp_path / "out") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err, err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("missing, command, expected", [
    ("graph.json", "code", 2),
    ("rotation.json", "code", 2),
    ("graph.json", "embed-search", 2),
    ("bundle/hx.txt", "distance", 2),
    ("bundle/hx.txt", "verify", 1),
])
def test_missing_input_exits_without_traceback(lift3_workdir, tmp_path,
                                               missing, command, expected):
    work = tmp_path / "w"
    shutil.copytree(lift3_workdir, work)
    (work / missing).unlink()
    result = run_capped(*_argv(command, work))
    assert result.returncode == expected, result.stderr
    assert str(work / missing) in result.stderr   # the OSError names its path
    assert "Traceback" not in result.stderr


def test_distance_refuses_max_weight_zero(lift3_workdir, tmp_path):
    work = tmp_path / "w"
    shutil.copytree(lift3_workdir, work)
    result = run_capped("distance", work / "bundle", "--max-weight", 0)
    assert result.returncode == 2, result.stderr
    assert "error: w_max must be at least 1" in result.stderr
    assert "Traceback" not in result.stderr


@pytest.mark.parametrize("argv", [
    ("embed-search", "graph.json", "--genus", 15, "--out", "out/found.json"),
    ("distance", "bundle", "--max-weight", 3),
], ids=["embed-search", "distance"])
def test_budget_refuses_a_negative_value(lift3_workdir, tmp_path, argv):
    """Both --budget options are checked as they are parsed, before a search
    runs or a file is written (genus 15 is the lift's self-dual genus, which
    the search explores); a non-integer is refused with the same form."""
    work = tmp_path / "w"
    shutil.copytree(lift3_workdir, work)
    code_json = (work / "bundle" / "code.json").read_bytes()
    command, target, *rest = argv
    for value in ("-1", "abc"):
        result = run_capped(command, work / target, *rest, "--budget", value)
        assert result.returncode == 2, result.stderr
        assert (f"error: argument --budget: expected an integer >= 0, got '{value}'"
                in result.stderr)
        assert "Traceback" not in result.stderr
        assert not (work / "out").exists()
        assert (work / "bundle" / "code.json").read_bytes() == code_json


@pytest.mark.parametrize("genus", ["-1", "abc"])
def test_embed_search_refuses_a_negative_genus(lift3_workdir, tmp_path, genus):
    """A negative or non-integer genus is a malformed query, not an absence:
    exit 2, and no report is written."""
    out = tmp_path / "out" / "found.json"
    result = run_capped("embed-search", lift3_workdir / "graph.json",
                        "--genus", genus, "--out", out)
    assert result.returncode == 2, result.stderr
    assert (f"error: argument --genus: expected an integer >= 0, got '{genus}'"
            in result.stderr)
    assert "Traceback" not in result.stderr and not result.stdout
    assert not out.parent.exists()


@pytest.mark.parametrize("modulus", [",", "2,x,1"])
def test_paley_names_a_malformed_modulus(tmp_path, modulus):
    result = run_capped("paley", 3, 2, "--modulus", modulus, "--out", tmp_path / "x")
    assert result.returncode == 2, result.stderr
    assert ("error: argument --modulus: expected comma-separated integers, "
            "constant term first") in result.stderr
    assert "Traceback" not in result.stderr
    assert not (tmp_path / "x").exists()


def test_closed_stdout_ends_quietly_with_status_141():
    """A reader that closes the pipe after three lines of a 10^8-row table
    stops the CLI as SIGPIPE stops a tool: status 128 + 13, nothing on
    stderr."""
    command, env = capped("sys.exit(main(sys.argv[1:]))\n",
                          ("table", "--family", "voltage", "--kprime-max", 10**8))
    with subprocess.Popen(command, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True) as child:
        try:
            lines = [child.stdout.readline() for _ in range(3)]
            child.stdout.close()
            status = child.wait(timeout=60)
        finally:
            child.kill()
        stderr = child.stderr.read()
    assert lines[0].split() == ["kprime", "m", "genus", "n", "k", "rate"]
    assert lines[1].split()[:2] == ["1", "16"] and lines[2].split()[:2] == ["2", "24"]
    assert (status, stderr) == (141, "")


# stdout is a writer that takes five lines and then stops the command; the
# child reports the lines it took and the traced peak since main began
FIVE_LINES = """import tracemalloc
class Stop(Exception):
    pass
class FiveLines:
    newlines = 0
    def write(self, text):
        if self.newlines == 5:
            raise Stop
        self.newlines += text.count("\\n")
    def flush(self):
        pass
real, sys.stdout = sys.stdout, FiveLines()
tracemalloc.start()
try:
    main(sys.argv[1:])
except Stop:
    pass
real.write(f"{sys.stdout.newlines} {tracemalloc.get_traced_memory()[1]}\\n")
"""


def test_table_streams_its_rows():
    """table prints each row as it computes it: five lines of a 10^8-row
    table cost well under 1 MB."""
    command, env = capped(FIVE_LINES, ("table", "--family", "voltage",
                                       "--kprime-max", 10**8))
    result = subprocess.run(command, env=env, capture_output=True, text=True,
                            timeout=60)
    assert result.returncode == 0, result.stderr
    lines, peak = map(int, result.stdout.split())
    assert lines == 5
    assert peak < 1 << 20, peak
