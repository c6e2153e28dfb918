"""Front-door subcommands: exit codes and report determinism."""

import io
from contextlib import redirect_stdout

import pytest

from tourkit.cli import main


def run_cli(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


@pytest.fixture()
def files(tmp_path):
    c3 = tmp_path / "c3.txt"
    c3.write_text("3\nedges\n1 2\n2 3\n3 1\n")
    tt4 = tmp_path / "tt4.txt"
    tt4.write_text("4\nedges\n1 2\n1 3\n1 4\n2 3\n2 4\n3 4\n")
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
    return {
        "c3": str(c3), "tt4": str(tt4), "k3": str(k3), "k5": str(k5),
        "labeled": str(labeled), "dir": tmp_path,
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

    def test_malformed_input(self, files, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("nonsense\n")
        code, _ = run_cli(["classify", str(bad)])
        assert code == 3

    def test_missing_file(self):
        code, _ = run_cli(["classify", "/nonexistent/path.txt"])
        assert code == 3

    def test_usage_errors_are_input_errors(self, files, capsys):
        from tourkit import cli

        usage_errors = [
            ["color", files["c3"], "--k", "x"],  # not an integer
            ["kofh"],  # missing file argument
            ["kofh", files["c3"], "--budget", "5"],  # flag kofh does not read
            ["count", files["c3"], files["c3"], "--seed", "1"],
            ["nonsense"],
        ]
        for argv in usage_errors:
            code, _ = run_cli(argv)
            assert code == cli.EXIT_INPUT == 3
            assert "input error:" in capsys.readouterr().err
        with pytest.raises(SystemExit) as exc:
            run_cli(["color", "--help"])
        assert exc.value.code == 0

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
        code, out = run_cli(["check-reduction", files["k5"]])
        assert code == 0
        assert "triangle-free-cut: no" in out

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
