import importlib.util
import os
import sys

from glasslocal.cli import _HANDLERS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "tools"))  # as when the tool runs as a script
_spec = importlib.util.spec_from_file_location(
    "cli_outputs", os.path.join(ROOT, "tools", "cli_outputs.py")
)
cli_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(cli_outputs)


def _tree(path, files):
    path.mkdir()
    for name, data in files.items():
        (path / name).write_bytes(data)
    return str(path)


def test_compare_reports_first_moved_line(tmp_path):
    parent = _tree(tmp_path / "p", {
        "a.out": b"x\n1\n", "b.out": b"h\n1\n2\n", "c.out": b"h\n1\n", "gone.out": b"",
    })
    change = _tree(tmp_path / "c", {
        "a.out": b"x\n1\n", "b.out": b"h\n1\n3\n", "c.out": b"h\n1\n4\n", "new.out": b"",
    })
    assert cli_outputs.compare(parent, change) == [
        ("a.out", "identical"),
        ("b.out", "moved at line 3: parent '2' | change '3'"),
        ("c.out", "moved at line 3: parent '' | change '4'"),
        ("gone.out", "only in parent"),
        ("new.out", "only in change"),
    ]


def test_compare_long_and_binary_lines(tmp_path):
    parent = _tree(tmp_path / "p", {"t.bin": b"\xff" * 200, "u.out": b"a"})
    change = _tree(tmp_path / "c", {"t.bin": b"\xfe", "u.out": b"a\nb"})
    (name, verdict), (_, short) = cli_outputs.compare(parent, change)
    assert name == "t.bin" and verdict.startswith("moved at line 1: parent '�")
    assert "...' | change '�'" in verdict
    assert short == "moved at line 2: parent <end of file> | change 'b'"


def test_invocations_cover_every_subcommand():
    labels = [label for label, _ in cli_outputs.INVOCATIONS]
    assert len(set(labels)) == len(labels)
    assert {argv[0] for _, argv in cli_outputs.INVOCATIONS} == set(_HANDLERS)
    assert labels.index("exact") < labels.index("w2")
    # the exact oracles run on a mixed and on an odd pure degree too
    kinds = {label: argv for label, argv in cli_outputs.INVOCATIONS}
    assert kinds["exact-mixed"][0] == kinds["exact-odd"][0] == "exact"
    assert kinds["chaos-mixed"][0] == "chaos"
    assert kinds["amp-gen-planted"][0] == "amp" and "amp.planted=false" in kinds["amp-gen-planted"]
    assert kinds["stability-mixed"][0] == "stability"
    # the default relative-Hessian spectrum at n = 600
    assert kinds["tap-n600"][:3] == ["tap", "--n", "600"] and "tap.k_amp=3" in kinds["tap-n600"]
    # AMP's z past |z| = 40, in `amp` at t = 60 and in `sample` to T = 40
    assert kinds["amp-t60"][0] == "amp" and "amp.t=60" in kinds["amp-t60"]
    assert kinds["sample-T40"][0] == "sample" and "sampler.L=800" in kinds["sample-T40"]


def test_run_all_logs_exit_code_and_stderr(tmp_path):
    calls = [
        ("se", ["se", "--beta", "0.4", "--set", "se.t_max=0.25"]),
        ("bad", ["se", "--beta", "-1"]),
    ]
    cli_outputs.run_all(ROOT, str(tmp_path), calls)
    assert (tmp_path / "se.log").read_text() == "exit 0\n"
    assert (tmp_path / "se.out").read_text().startswith("t,q_star,psi_star,mmse\n")
    assert (tmp_path / "se.out.config.json").exists()
    assert (tmp_path / "bad.log").read_text().startswith("exit 2\nconfig error: ")


def test_change_side_defaults_to_working_tree(monkeypatch, capsys):
    exported, trees = [], []

    def export(rev, dest):
        exported.append(rev)
        return "0" * 40

    def run_all(tree, outdir):
        trees.append(tree)
        with open(os.path.join(outdir, "x.out"), "w") as f:
            f.write("same\n")

    monkeypatch.setattr(cli_outputs, "export", export)
    monkeypatch.setattr(cli_outputs, "run_all", run_all)
    assert cli_outputs.main(["--parent", "HEAD"]) == 0
    assert exported == ["HEAD"]  # one `git archive`, for the parent only
    assert trees[1] == ROOT
    assert "change: the working tree" in capsys.readouterr().out
    exported.clear()
    trees.clear()
    assert cli_outputs.main(["--parent", "HEAD~1", "--change", "HEAD"]) == 0
    assert exported == ["HEAD~1", "HEAD"] and ROOT not in trees
