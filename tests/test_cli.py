"""Front-door subcommands: exit codes and report determinism."""

import ast
import io
import os
import random
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

import tourkit
from tourkit import cli
from tourkit.cli import main
from tourkit.digraphs import random_tournament
from tourkit.formats import serialize_oriented_graph


def run_cli(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def run_cli_full(argv):
    """Exit code, stdout and stderr of one ``main`` call."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def usage_errors(files):
    return [
        ["color", files["c3"], "--k", "x"],  # not an integer
        ["kofh"],  # missing file argument
        ["kofh", files["c3"], "--budget", "5"],  # flag kofh does not read
        ["count", files["c3"], files["c3"], "--seed", "1"],
        ["distance", files["c3"], files["c3"], "--budget", "-1"],  # negative
        ["regularity", files["t12"], "--pattern-size", "2"],  # flag removed
        ["nonsense"],
    ]


@pytest.fixture()
def files(tmp_path):
    c3 = tmp_path / "c3.txt"
    c3.write_text("3\nedges\n1 2\n2 3\n3 1\n")
    tt4 = tmp_path / "tt4.txt"
    tt4.write_text("4\nedges\n1 2\n1 3\n1 4\n2 3\n2 4\n3 4\n")
    tt3 = tmp_path / "tt3.txt"
    tt3.write_text("3\nedges\n1 2\n1 3\n2 3\n")
    k3 = tmp_path / "k3.txt"
    k3.write_text("3\n1 2\n1 3\n2 3\n")
    k5 = tmp_path / "k5.txt"
    k5.write_text(
        "5\n" + "\n".join(
            f"{i} {j}" for i in range(1, 6) for j in range(i + 1, 6)
        ) + "\n"
    )
    labeled = tmp_path / "labeled.txt"
    labeled.write_text("vertices: 1 2 3\n1 3\n2 3\n")
    t12 = tmp_path / "t12.txt"
    t12.write_text(serialize_oriented_graph(random_tournament(12, random.Random(0))))
    return {
        "c3": str(c3), "tt3": str(tt3), "tt4": str(tt4), "k3": str(k3), "k5": str(k5),
        "labeled": str(labeled), "t12": str(t12), "dir": tmp_path,
    }


class TestExitCodes:
    def test_classify_easy(self, files):
        code, out = run_cli(["classify", files["c3"]])
        assert code == 0
        assert "classification: easy" in out

    def test_gadget_verify(self, files):
        code, out = run_cli(["gadget-verify"])
        assert code == 0
        assert "proper-colorings: 6" in out

    def test_count_zero_is_negative(self, files):
        # pattern larger than host
        code, out = run_cli(["count", files["c3"], files["tt4"]])
        assert code == 1
        assert "embeddings: 0" in out

    def test_count_positive(self, files):
        code, out = run_cli(["count", files["tt4"], files["c3"]])
        assert code == 1  # transitive host has no directed triangle
        code, out = run_cli(["count", files["c3"], files["c3"]])
        assert code == 0
        assert "embeddings: 3" in out
        assert "unlabeled-copies: 1" in out

    def test_distance(self, files):
        code, out = run_cli(["distance", files["c3"], files["c3"]])
        assert code == 0
        assert "distance: 1" in out

    def test_distance_budget(self, files):
        code, out = run_cli(["distance", files["c3"], files["c3"], "--budget", "0"])
        assert code == 2

    def test_distance_says_which_limit_stopped_it(self, files, monkeypatch):
        # C3 needs one reversal: a cap of 0 proves the distance is at least 1
        code, out = run_cli(["distance", files["c3"], files["c3"], "--budget", "0"])
        assert "distance exceeds budget; proven lower bound 1" in out
        assert "lower-bound: 1" in out
        # a node budget of 0 runs out at the root, before any bound is proven
        search = cli.dg.distance_to_h_free
        monkeypatch.setattr(
            cli.dg, "distance_to_h_free",
            lambda *a, **kw: search(*a, **kw, node_budget=0),
        )
        code, out = run_cli(["distance", files["c3"], files["c3"]])
        assert code == 2
        assert "search node budget exhausted; proven lower bound 0" in out
        assert "exceeds" not in out
        assert "upper-bound" not in out
        # the search keeps no incumbent, so a budget that runs out after
        # copy-free nodes were reached still prints only the lower bound
        t10 = files["dir"] / "t10.txt"
        t10.write_text(serialize_oriented_graph(random_tournament(10, random.Random(0))))
        monkeypatch.setattr(
            cli.dg, "distance_to_h_free",
            lambda *a, **kw: search(*a, **kw, node_budget=102),
        )
        code, out = run_cli(["distance", str(t10), files["c3"]])
        assert code == 2
        assert "search node budget exhausted; proven lower bound 11" in out
        assert "upper-bound" not in out and "flips" not in out

    def test_distance_impossible_is_negative(self, files):
        # every 4-vertex tournament has an edge, and no reversal set works
        # for an edgeless pattern: both are decisions, not exhausted budgets,
        # with or without a cap: a cap below C(4,2) does not weaken the
        # proof that no set works
        edge = files["dir"] / "edge.txt"
        edge.write_text("2\nedges\n1 2\n")
        empty = files["dir"] / "empty.txt"
        empty.write_text("2\nedges\n")
        for pattern in (edge, empty):
            for budget in ([], ["--budget", "2"]):
                code, out = run_cli(["distance", files["tt4"], str(pattern), *budget])
                assert code == cli.EXIT_NEGATIVE == 1
                assert "no reversal set makes the host pattern-free" in out
                assert "lower-bound: 7" in out
                assert "budget" not in out

    def test_distance_unavoidable_acyclic_pattern_under_a_budget(self, files):
        # TT3 embeds into every tournament on 12 >= 2^2 vertices: whatever
        # the cap, no reversal set works, a decision proven by rule
        for budget in ([], ["--budget", "5"]):
            code, out = run_cli(["distance", files["t12"], files["tt3"], *budget])
            assert code == cli.EXIT_NEGATIVE
            assert "lower-bound: 67" in out
            assert "budget" not in out

    def test_malformed_input(self, files, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("nonsense\n")
        code, _ = run_cli(["classify", str(bad)])
        assert code == 3

    def test_bad_edge_names_its_line(self, files, capsys):
        bad = files["dir"] / "bad-edge.txt"
        bad.write_text("3\nedges\n1 5\n1 2\n2 3\n")
        code, out = run_cli(["count", str(bad), files["c3"]])
        assert code == 3 and out == ""
        assert capsys.readouterr().err.startswith("input error: line 3:")

    def test_missing_file(self):
        code, _ = run_cli(["classify", "/nonexistent/path.txt"])
        assert code == 3

    def test_usage_errors_are_input_errors(self, files, capsys):
        for argv in usage_errors(files):
            code, _ = run_cli(argv)
            assert code == cli.EXIT_INPUT == 3
            assert "input error:" in capsys.readouterr().err
        with pytest.raises(SystemExit) as exc:
            run_cli(["color", "--help"])
        assert exc.value.code == 0

    def test_regularity_rejects_an_empty_tournament(self, files, capsys):
        empty = files["dir"] / "t0.txt"
        empty.write_text("0\n")
        code, out = run_cli(["regularity", str(empty)])
        assert code == 3 and out == ""
        err = capsys.readouterr().err
        assert err == (
            "input error: regularity needs a matrix with at least one row (n >= 1)\n"
        )

    def test_forcing_build_rejects_one_vertex_pattern(self, files, capsys):
        single = files["dir"] / "single.txt"
        single.write_text("1\nedges\n")
        code, _ = run_cli(["forcing-build", str(single), "--m", "2"])
        assert code == 3
        err = capsys.readouterr().err
        assert "at least two vertices" in err
        assert "line 0" not in err

    def test_audit_failure_has_its_own_code(self, monkeypatch, capsys):
        from tourkit import cli
        from tourkit.errors import AuditError

        def broken(args):
            raise AuditError("forced failure")

        monkeypatch.setattr(cli, "_cmd_gadget_verify", broken)
        code, _ = run_cli(["gadget-verify"])
        assert code == cli.EXIT_AUDIT == 4
        assert "audit failure: forced failure" in capsys.readouterr().err

    def test_broken_nae_solver_is_an_audit_failure(self, files, monkeypatch, capsys):
        from tourkit import cli, nae

        # all zeros leaves every cyclic triangle of T(K3) monochromatic
        monkeypatch.setattr(nae, "solve_tournament", lambda t, budget=None: [0] * t.n)
        code, _ = run_cli(["check-reduction", files["k3"]])
        assert code == cli.EXIT_AUDIT
        assert "audit failure:" in capsys.readouterr().err

    def test_invalid_lift_is_an_audit_failure(self, files, monkeypatch, capsys):
        from tourkit import cli, hardness
        from tourkit.coloring import Coloring

        # a tournament colouring with one colour on K3's spine: only
        # check_reduction's lifted-cut audit can catch it
        monkeypatch.setattr(
            hardness, "nae_two_coloring", lambda t, budget=None: Coloring((1,) * t.n, 2)
        )
        code, out = run_cli(["check-reduction", files["k3"]])
        assert code == cli.EXIT_AUDIT == 4 and out == ""
        assert "audit failure: lifted coloring" in capsys.readouterr().err

    def test_check_reduction_has_no_recursion_limit(self, tmp_path):
        # an edgeless graph on 1100 vertices: each NAE search branches once
        # per variable, deeper than Python's default recursion limit
        edgeless = tmp_path / "edgeless.txt"
        edgeless.write_text("1100\n")
        code, out = run_cli(["check-reduction", str(edgeless)])
        assert code == 0
        assert "tournament-2-colorable: yes" in out.splitlines()

    def test_color_negative(self, files, minimal_hard):
        from tourkit.formats import serialize_oriented_graph

        hard = files["dir"] / "hard.txt"
        hard.write_text(serialize_oriented_graph(minimal_hard))
        code, out = run_cli(["color", str(hard), "--k", "2"])
        assert code == 1
        code, out = run_cli(["color", str(hard), "--k", "3"])
        assert code == 0


class TestPipelines:
    def test_forcing_roundtrip(self, files):
        out_file = files["dir"] / "f.txt"
        code, _ = run_cli(
            ["forcing-search", files["c3"], "--m-max", "3", "--out", str(out_file)]
        )
        assert code == 0
        code, out = run_cli(["forcing-check", str(out_file), files["c3"]])
        assert code == 0
        assert "forces: yes" in out

    def test_forcing_check_negative(self, files):
        f_file = files["dir"] / "oneway.txt"
        f_file.write_text("parts: 2 2\n1.1 2.1\n1.1 2.2\n1.2 2.1\n1.2 2.2\n")
        code, out = run_cli(["forcing-check", str(f_file), files["c3"]])
        assert code == 1

    def test_reduce_and_check(self, files):
        out_file = files["dir"] / "red.txt"
        code, out = run_cli(["reduce", files["k3"], "--out", str(out_file)])
        assert code == 0
        assert "vertices: 21" in out
        roles = (files["dir"] / "red.txt.roles").read_text()
        assert roles.startswith("spine: 3")
        code, out = run_cli(["check-reduction", files["k3"]])
        assert code == 0
        assert "agree: yes" in out
        # printed, always as yes, exactly when the tournament side is colourable
        assert "lifted-cut-valid: yes" in out.splitlines()
        code, out = run_cli(["check-reduction", files["k5"]])
        assert code == 0
        assert "triangle-free-cut: no" in out
        assert "lifted-cut-valid" not in out

    def test_lift_chain(self, files):
        lifted = files["dir"] / "lifted.txt"
        code, _ = run_cli(["lift", files["c3"], "--k", "3", "--out", str(lifted)])
        assert code == 0
        code, out = run_cli(["chromatic", str(lifted)])
        assert code == 0
        assert "chromatic-number: 3" in out

    def test_core_subcommand(self, files):
        code, out = run_cli(["core", files["labeled"]])
        assert code == 0
        assert "core-vertices: 1 3" in out

    def test_behrend_and_rsgraph(self, files):
        code, out = run_cli(["behrend", "--n", "14"])
        assert code == 0
        assert "size: 4" in out
        code, out = run_cli(["rsgraph", "--k", "3", "--cycle", "1,2,3", "--nmax", "8"])
        assert code == 0
        assert "cliques:" in out

    def test_regularity(self, files, tmp_path, rng):
        from tourkit.digraphs import random_tournament
        from tourkit.formats import serialize_oriented_graph

        t_file = tmp_path / "t30.txt"
        t_file.write_text(serialize_oriented_graph(random_tournament(30, rng)))
        code, out = run_cli(["regularity", str(t_file), "--delta", "1/4"])
        assert code == 0
        assert "branch:" in out


class TestDeterminism:
    def test_reports_are_byte_identical(self, files):
        first = run_cli(["classify", files["c3"]])
        second = run_cli(["classify", files["c3"]])
        assert first == second
        a = run_cli(["behrend", "--n", "20"])
        b = run_cli(["behrend", "--n", "20"])
        assert a == b

    def test_seeded_blowup_reports_identical(self, files, minimal_hard, tmp_path):
        from tourkit.formats import serialize_oriented_graph

        hard = tmp_path / "hard.txt"
        hard.write_text(serialize_oriented_graph(minimal_hard))
        args = ["blowup", str(hard), "--n", "50", "--nmax", "5", "--seed", "7"]
        assert run_cli(args) == run_cli(args)

    def test_written_artifacts_identical(self, files, tmp_path):
        out1 = tmp_path / "a.txt"
        out2 = tmp_path / "b.txt"
        run_cli(["forcing-build", files["c3"], "--m", "4", "--seed", "9",
                 "--out", str(out1)])
        run_cli(["forcing-build", files["c3"], "--m", "4", "--seed", "9",
                 "--out", str(out2)])
        assert out1.read_text() == out2.read_text()


class TestParserReuse:
    """``main`` builds its parser once per process; reusing it must give
    the same exit code, stdout and stderr as a freshly built one."""

    def test_reused_parser_matches_fresh_parser(self, files, minimal_hard, tmp_path):
        hard = tmp_path / "hard.txt"
        hard.write_text(serialize_oriented_graph(minimal_hard))
        forcing = tmp_path / "f.txt"
        forcing.write_text("parts: 2 2\n1.1 2.1\n1.1 2.2\n1.2 2.1\n1.2 2.2\n")
        c3, out = files["c3"], str(tmp_path / "out.txt")
        argvs = [
            ["color", c3, "--k", "2"],
            ["chromatic", c3],
            ["classify", c3],
            ["count", c3, c3],
            ["distance", c3, c3],
            ["core", files["labeled"]],
            ["kofh", c3],
            ["forcing-build", c3, "--m", "3", "--seed", "1", "--out", out],
            ["forcing-check", str(forcing), c3],
            ["forcing-search", c3, "--m-max", "2"],
            ["regularity", files["t12"]],
            ["behrend", "--n", "14"],
            ["rsgraph", "--k", "3", "--cycle", "1,2,3", "--nmax", "8"],
            ["blowup", str(hard), "--n", "30", "--nmax", "3", "--out", out],
            ["audit-copies", str(hard), "--n", "30", "--nmax", "3"],
            ["gadget-verify"],
            ["reduce", files["k3"], "--out", out],
            ["check-reduction", files["k3"]],
            ["lift", c3, "--out", out],
        ]
        handlers = {name[len("_cmd_"):].replace("_", "-")
                    for name in vars(cli) if name.startswith("_cmd_")}
        assert {argv[0] for argv in argvs} == handlers
        argvs += usage_errors(files)
        fresh = []
        for argv in argvs:
            cli._build_parser.cache_clear()
            fresh.append(run_cli_full(argv))
        # every subcommand reaches a decision, every usage error is one
        codes = [code for code, _, _ in fresh]
        assert set(codes[:len(handlers)]) <= {cli.EXIT_OK, cli.EXIT_NEGATIVE}
        assert set(codes[len(handlers):]) == {cli.EXIT_INPUT}
        cli._build_parser.cache_clear()
        order = list(range(len(argvs)))
        for i in order + order[::-1]:
            assert run_cli_full(argvs[i]) == fresh[i], argvs[i]
        with pytest.raises(SystemExit) as exc:
            run_cli_full(["color", "--help"])
        assert exc.value.code == 0
        assert run_cli_full(argvs[0]) == fresh[0]
        assert cli._build_parser.cache_info().misses == 1


def test_no_module_imports_numpy(files, minimal_hard):
    """No module of the package imports numpy, and a fresh process that
    runs the main subcommands and library entry points, ``regularity``
    included, never loads it."""
    package = Path(tourkit.__file__).resolve().parent
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert all(name.split(".")[0] != "numpy" for name in names), path
    t32 = files["dir"] / "t32.txt"
    t32.write_text(serialize_oriented_graph(random_tournament(32, random.Random(0))))
    hard = files["dir"] / "hard.txt"
    hard.write_text(serialize_oriented_graph(minimal_hard))
    blowup = [str(hard), "--n", "30", "--nmax", "3"]
    out = str(files["dir"] / "blowup.txt")
    script = f"""
import contextlib, io, sys
import tourkit, tourkit.cli
from tourkit.cli import main
from tourkit.coloring import smallest_non_two_colorable_tournament
from tourkit.digraphs import c3_pattern
from tourkit.forcing import KPartiteTournament, certify_completion, disjoint_tuples
from tourkit.lowerbound import blowup_tournament, farness_certificate
with contextlib.redirect_stdout(io.StringIO()):
    assert main(["check-reduction", {files["k3"]!r}]) == 0
    assert main(["kofh", {files["c3"]!r}]) == 0
    assert main(["count", {files["c3"]!r}, {files["c3"]!r}]) == 0
    assert main(["blowup", *{blowup!r}, "--out", {out!r}]) == 0
    assert main(["audit-copies", *{blowup!r}]) == 0
    assert len(disjoint_tuples(6, 3).tuples) == 28
    f = KPartiteTournament(2, 2, [(1, 3), (3, 2), (2, 4), (4, 1)])
    t = next(f.completions())
    assert certify_completion(f, t, c3_pattern(), [[1, 2], [3]]).count == 1
    b = blowup_tournament(smallest_non_two_colorable_tournament(), 30, 0, n_max=3)
    farness_certificate(b, b.tournament)
    assert main(["regularity", {files["t12"]!r}]) == 0
    assert main(["regularity", {str(t32)!r}]) == 0
assert "numpy" not in sys.modules
"""
    src = str(Path(tourkit.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
