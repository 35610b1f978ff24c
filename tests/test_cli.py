import re
from pathlib import Path

import pytest

from chainflux import bose_occupation
from chainflux.cli import cli_main

REPO = Path(__file__).resolve().parent.parent


def test_usage_error_exits_2(capsys):
    assert cli_main([]) == 2
    assert cli_main(["bogus"]) == 2
    capsys.readouterr()


def test_missing_config_exits_2(tmp_path, capsys):
    code = cli_main(["sweep", "--config", str(tmp_path / "nope.cfg")])
    assert code == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["sweep", "figures"])
def test_the_workers_option_is_refused(command, tmp_path, capsys):
    # sweeps run in the calling process: --workers is no option of either
    # command, and nothing is written
    args = ["--config", str(REPO / "configs" / "kscan4.cfg"), "--out", str(tmp_path / "k.csv")]
    if command == "figures":
        args = ["--outdir", str(tmp_path)]
    assert cli_main([command, *args, "--workers", "2"]) == 2
    assert "unrecognized arguments: --workers 2" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_invalid_config_exits_2(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("n_qubits = 1\nepsilon = -1\nt1 = 1\nt2 = 0\naxis = t1\ngrid = 1\n")
    assert cli_main(["sweep", "--config", str(cfg)]) == 2
    assert "NonPositiveGap" in capsys.readouterr().err


@pytest.mark.parametrize("args", [["--couplings", "nan", "--t1", "1"],
                                  ["--couplings", "1", "--t1", "nan"],
                                  ["--couplings", "1", "--t1", "inf"]])
def test_steady_rejects_non_finite_input(args, capsys):
    assert cli_main(["steady", "--epsilons", "1.5,1.5", "--t2", "0", *args]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("args", [["--epsilons", "1.5,abc"],
                                  ["--epsilons", "1.5,1.5", "--couplings", "x"]])
def test_steady_rejects_non_numeric_list_entries(args, capsys):
    # such an entry used to end in a ValueError traceback and exit code 1
    assert cli_main(["steady", *args, "--t1", "1", "--t2", "0"]) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "not a comma list of numbers" in err
    assert "Traceback" not in err


def test_steady_monomer_reports_identical_approaches(capsys):
    code = cli_main(["steady", "--epsilons", "1.0", "--t1", "1", "--t2", "0",
                     "--approach", "both"])
    assert code == 0
    out = capsys.readouterr().out
    blocks = re.split(r"approach: \w+\n", out)
    assert len(blocks) == 3
    # the same populations and fluxes; the solver lines describe different
    # systems (the frame block and the local correlation matrix)
    results = [[line for line in block.splitlines() if "solver residual" not in line]
               for block in blocks[1:]]
    assert results[0] == results[1] and len(results[0]) == 2


def test_steady_dimer_prints_channels(capsys):
    code = cli_main(["steady", "--epsilons", "1.5,1.5", "--couplings", "1",
                     "--t1", "2", "--t2", "0", "--approach", "global"])
    assert code == 0
    out = capsys.readouterr().out
    assert "channels" in out
    assert "omega = 0.5" in out
    assert "omega = 2.5" in out


def test_steady_prints_solver_diagnostics(capsys):
    assert cli_main(["steady", "--epsilons", "1.5,1.5", "--couplings", "1",
                     "--t1", "2", "--t2", "0"]) == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if "solver residual" in l]
    assert len(lines) == 2
    # the global dimer's modes at 0.5 and 2.5 are apart: its row solves
    # their 2 occupations, and rcond reads min_k Lambda_k / max_k Lambda_k,
    # with Lambda_k = (2 nbar_1 + 1) / 2 + 1 / 2 at T2 = 0
    rcond = (bose_occupation(2.5, 2.0) + 1.0) / (bose_occupation(0.5, 2.0) + 1.0)
    assert lines[0].endswith(f"(rcond {rcond:.3e}, 2 unknowns)")
    # the local dimer solves the N^2 = 4 coordinates of its correlation matrix
    assert re.search(r"\(rcond \d\.\d{3}e[-+]\d+, 4 unknowns\)$", lines[1])
    # a mode at 1e-3 is solved mode by mode too; two modes in one bin
    # (K = 0, equal gaps) solve the N^2 = 4 coordinates of the hole frame
    assert cli_main(["steady", "--epsilons", "1.001,1.001", "--couplings", "1",
                     "--t1", "2", "--t2", "0", "--approach", "global"]) == 0
    (line,) = [l for l in capsys.readouterr().out.splitlines() if "solver residual" in l]
    assert re.search(r"\(rcond \d\.\d{3}e[-+]\d+, 2 unknowns\)$", line)
    assert cli_main(["steady", "--epsilons", "1.5,1.5", "--couplings", "0",
                     "--t1", "2", "--t2", "0", "--approach", "global"]) == 0
    (line,) = [l for l in capsys.readouterr().out.splitlines() if "solver residual" in l]
    assert re.search(r"\(rcond \d\.\d{3}e[-+]\d+, 4 unknowns\)$", line)


@pytest.mark.parametrize("approach", ["both", "global", "local"])
def test_steady_prints_each_approach_beside_the_other_s_error(approach, capsys):
    # eps = K: the global dimer has a zero mode, the local one solves; a
    # failed approach prints its name and its error, and the exit code is 2
    code = cli_main(["steady", "--epsilons", "1,1", "--couplings", "1", "--t1", "1",
                     "--t2", "0", "--approach", approach])
    captured = capsys.readouterr()
    assert code == (0 if approach == "local" else 2)
    names = re.findall(r"^approach: (\w+)$", captured.out, flags=re.M)
    assert names == (["global", "local"] if approach == "both" else [approach])
    assert ("n1 = 0.213780913119" in captured.out) == (approach != "global")
    error = "error: coupling element across degenerate eigenstates 0, 1\n"
    assert captured.err == (error if approach != "local" else "")


def test_sweep_command_writes_csv(tmp_path, capsys):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(
        "n_qubits = 2\nepsilon = 1.5\ncoupling = 1.0\n"
        "t1 = 0.5\nt2 = 0.0\naxis = t1\ngrid = 0.5, 1.0\n"
        "approaches = both\noutputs = populations, heat_flux\n"
    )
    out = tmp_path / "table.csv"
    assert cli_main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
    assert out.exists()
    assert "wrote" in capsys.readouterr().out
    lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    assert lines[0] == "T1,approach,n1,n2,Q1,Q2,residual"
    assert len(lines) == 5


def test_verify_command_passes_on_this_build(capsys):
    assert cli_main(["verify"]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out
    assert out.count("PASS") >= 8


def test_package_exports_every_name_tests_and_cli_import():
    import ast
    from pathlib import Path

    import chainflux

    package = Path(chainflux.__file__).resolve().parent
    imported = set()
    for path in [package / "cli.py", *Path(__file__).resolve().parent.glob("test_*.py")]:
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.ImportFrom):
                continue
            public = node.module == "chainflux" or (path.name == "cli.py" and node.level == 1)
            if public:
                imported |= {a.name for a in node.names if not a.name.startswith("_")}
    assert imported
    assert sorted(imported - set(chainflux.__all__)) == []
    assert len(set(chainflux.__all__)) == len(chainflux.__all__)
    assert all(hasattr(chainflux, name) for name in chainflux.__all__)


def test_import_loads_no_process_pool_or_logging():
    # a sweep runs in the calling process: importing the package loads
    # neither executor module, nor the logging they import, and no module
    # of the package imports them later
    import ast
    import os
    import subprocess
    import sys

    import chainflux

    banned = ("concurrent.futures", "multiprocessing", "logging")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
    loaded = subprocess.run(
        [sys.executable, "-c", "import sys, chainflux; print(chainflux.__file__); "
                               f"print([m for m in {banned!r} if m in sys.modules])"],
        env=env, capture_output=True, text=True, timeout=60, check=True).stdout.splitlines()
    assert loaded == [chainflux.__file__, "[]"]
    for path in Path(chainflux.__file__).resolve().parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            names = ([a.name for a in node.names] if isinstance(node, ast.Import)
                     else [node.module or ""] if isinstance(node, ast.ImportFrom) else [])
            assert not [n for n in names if n.split(".")[0] in ("concurrent", "multiprocessing")]
