import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ionlab.cli as cli
import ionlab.hf
from ionlab.errors import FormatError, ParameterError


class TestRunConfig:
    def test_unknown_command_rejected(self):
        with pytest.raises(ParameterError):
            cli.RunConfig(command="frobnicate")

    def test_unknown_parameter_rejected(self):
        with pytest.raises(ParameterError):
            cli.RunConfig(command="drop", parameters={"mass": 1.0})

    def test_parameter_conversion(self):
        cfg = cli.RunConfig(command="tfw", parameters={"sweep": "1,2,4"})
        assert cfg.parameters["sweep"] == [1.0, 2.0, 4.0]

    def test_format_validated(self):
        with pytest.raises(ParameterError):
            cli.RunConfig(command="drop", format="yaml")

    @pytest.mark.parametrize(
        "command, key", [(c, k) for c, run in cli._COMMANDS.items() for k in run.__annotations__]
    )
    def test_every_schema_key_has_its_flag(self, command, key):
        conv = cli._COMMANDS[command].__annotations__[key]
        arg, expected = {
            bool: ([], True), int: (["3"], 3), float: (["0.5"], 0.5),
            str: (["hardy"], "hardy"), list[float]: (["1,2"], [1.0, 2.0]),
        }[conv]
        flag = "--" + key.replace("_", "-")
        args = cli._build_parser().parse_args([command, flag, *arg])
        assert cli._config_from_args(args).parameters == {key: expected}

    @pytest.mark.parametrize("command", list(cli._COMMANDS))
    def test_every_flag_has_a_default_and_a_known_converter(self, command):
        # A runner that gains a required flag or a converter _convert does
        # not know fails here, not at a user's prompt.
        runner = cli._COMMANDS[command]
        assert list(runner.__kwdefaults__) == list(runner.__annotations__)
        for key, conv in runner.__annotations__.items():
            assert conv in (bool, int, float, str, list[float]), key
            if conv is bool:
                assert runner.__kwdefaults__[key] is False, key


class TestRunAndEmit:
    def test_drop_dispatch(self):
        report = cli.run(cli.RunConfig(command="drop", parameters={"m": 1.0}))
        assert report.payload["perimeter"] == pytest.approx((36 * np.pi) ** (1 / 3))
        assert report.payload["coulomb"] == pytest.approx(
            0.6 * (4 * np.pi / 3) ** (1 / 3)
        )

    def test_repeat_run_identical_bytes(self):
        cfg = cli.RunConfig(command="beta", parameters={"n": 6, "restarts": 2}, seed=9)
        data1 = cli.emit(cli.run(cfg))
        data2 = cli.emit(cli.run(cfg))
        assert data1 == data2

    def test_json_roundtrip_lossless(self):
        cfg = cli.RunConfig(command="drop", parameters={"m": 0.37}, seed=1)
        report = cli.run(cfg)
        parsed = json.loads(cli.emit(report).decode())
        assert parsed == json.loads(json.dumps(report.to_jsonable()))
        # 17-significant-digit floats reparse exactly
        assert parsed["payload"]["perimeter"] == report.payload["perimeter"]

    def test_tf_summary_keys(self):
        cfg = cli.RunConfig(
            command="tf",
            parameters={"Z": 1.0, "N": 1.0, "grid_n": 900, "rmin": 1e-4, "rmax": 400.0},
        )
        report = cli.run(cfg)
        assert set(report.payload) >= {"Z", "N", "mu", "mass", "energy", "residual"}
        assert report.columns == ("r", "rho", "phi")

    def test_curve_csv_columns(self):
        cfg = cli.RunConfig(
            command="hartree", parameters={"ts": "0.2,0.4"}, format="csv"
        )
        report = cli.run(cfg)
        lines = cli.emit(report).decode().splitlines()
        assert lines[0] == "t,e,mu,bound_mass"
        assert len(lines) == 3

    def test_csv_without_table_rejected(self):
        from ionlab.errors import FormatError

        report = cli.run(
            cli.RunConfig(command="drop", parameters={"m": 1.0}, format="csv")
        )
        with pytest.raises(FormatError):
            cli.emit(report)

    def test_empty_payload_still_valid_json(self):
        report = cli.RunReport(
            config=cli.RunConfig(command="drop"),
            payload={},
            table=None,
            columns=None,
            timings={},
            diagnostics={},
        )
        parsed = json.loads(cli.emit(report).decode())
        assert parsed["payload"] == {}


class TestMainExitCodes:
    def test_success(self, capsysbinary):
        assert cli.main(["drop", "--m", "1"]) == 0
        out = capsysbinary.readouterr().out
        assert b"perimeter" in out

    def test_validation_error_exit_2(self):
        assert cli.main(["drop", "--m", "-3"]) == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["sigal", "--trials", "0"],
            ["sigal", "--trials", "-3"],
            ["sigal", "--eps", "1.5"],
            ["sigal", "--eps", "-1"],
            ["sigal", "--eps", "0"],
            ["sigal", "--eps", "1"],
            ["drop", "--check-identities", "--mc-pairs", "-5"],
            ["opcheck", "--check", "double_commutator", "--tol", "-1"],
            ["opcheck", "--check", "nosuch"],
            [],
        ],
    )
    def test_count_below_range_exit_2(self, argv, capsysbinary):
        assert cli.main(argv) == 2
        assert capsysbinary.readouterr().out == b""

    @pytest.mark.parametrize(
        "argv",
        [
            ["hartree", "--t", "nan"],
            ["hartree", "--tc", "--tol", "nan"],
            ["hf", "--z", "nan"],
            ["drop", "--m", "nan"],
            ["opcheck", "--check", "hardy", "--tol", "nan"],
            ["tf", "--N", "inf"],
            ["hartree", "--t", "inf"],
            ["tf", "--Z", "nan"],
            ["tfw", "--sweep", "1,nan"],
        ],
    )
    def test_non_finite_value_exit_2(self, argv, capsysbinary):
        assert cli.main(argv) == 2
        assert capsysbinary.readouterr().out == b""

    def test_non_finite_value_via_config_file(self, tmp_path, capsysbinary):
        # json.load reads the NaN and Infinity literals as floats
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"Z": NaN}')
        assert cli.main(["tfw", "--config", str(cfg)]) == 2
        assert capsysbinary.readouterr().out == b""

    @pytest.mark.parametrize(
        "argv, key",
        [(["tf", "--Z", "abc"], "Z"), (["beta", "--n", "2.7"], "n"),
         (["opcheck", "--grid-n", "1e3"], "grid_n")],
    )
    def test_bad_flag_value_exit_2(self, argv, key, capsysbinary):
        # A flag value passes the one converter a --config value does.
        assert cli.main(argv) == 2
        captured = capsysbinary.readouterr()
        assert captured.out == b""
        assert f"invalid value {argv[-1]!r} for parameter {key!r}".encode() in captured.err

    @pytest.mark.parametrize("key", ["seed", "bogus_key"])
    @pytest.mark.parametrize("command", list(cli._COMMANDS))
    def test_config_key_that_names_no_runner_parameter_exit_2(
        self, tmp_path, capsysbinary, command, key
    ):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: 1}))
        assert cli.main([command, "--config", str(cfg)]) == 2
        assert capsysbinary.readouterr().out == b""

    @pytest.mark.parametrize(
        "argv",
        [["drop", "--m", "1e200"], ["drop", "--m", "1e300"],
         ["drop", "--m", "1e300", "--split", "0.5"]],
    )
    def test_overflowing_volume_exit_2(self, argv, capsysbinary):
        assert cli.main(argv) == 2
        captured = capsysbinary.readouterr()
        assert captured.out == b""
        assert captured.err.startswith(b"ionlab: ") and b"overflows" in captured.err

    @pytest.mark.parametrize(
        "argv",
        [["hf", "--z", "1e308"], ["hf", "--exponents", "1e308,1"],
         ["tf", "--Z", "1e-300"], ["tf", "--Z", "1e300"],
         ["drop", "--m", "1e160", "--mc-pairs", "10"],
         ["tf", "--Z", "1", "--N", "1", "--rmin", "1e-160", "--grid-n", "4000"]],
    )
    def test_input_that_overflows_its_model_exit_2(self, argv, capsysbinary):
        assert cli.main(argv) == 2
        captured = capsysbinary.readouterr()
        assert captured.out == b""
        assert captured.err.startswith(b"ionlab: ") and b"Traceback" not in captured.err

    def test_unknown_parameter_via_config_file(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"bogus_key": 1}))
        assert cli.main(["drop", "--m", "1", "--config", str(cfg)]) == 2

    def test_tfw_rejects_grid_size(self, tmp_path):
        # tfw solves on its default grid only, so a grid size it would
        # ignore is refused rather than echoed in the output's config.
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"grid_n": 300}))
        assert cli.main(["tfw", "--Z", "1", "--config", str(cfg)]) == 2

    def test_explicit_flags_win_over_config_file(self, tmp_path, capsysbinary):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"m": 5.0, "split": 0.5}))
        assert cli.main(["drop", "--m", "2", "--config", str(cfg)]) == 0
        parsed = json.loads(capsysbinary.readouterr().out.decode())
        assert parsed["payload"]["m"] == 2  # flag beat the file
        assert "binding_gap_bound" in parsed["payload"]  # file key kept

    def test_drop_split_payload(self, capsysbinary):
        assert cli.main(["drop", "--m", "3", "--split", "0.5"]) == 0
        parsed = json.loads(capsysbinary.readouterr().out.decode())
        assert parsed["payload"]["binding_gap_bound"] > 0

    @pytest.mark.parametrize(
        "command, text",
        [
            ("tf", '{"Z": "abc"}'),
            ("tfw", '{"sweep": 4}'),
            ("hf", '{"scan": "no"}'),
            ("beta", '{"n": 2.7}'),
            ("beta", '{"n": true}'),
            ("tf", "[1, 2]"),
            ("tf", '{"Z": 1'),
        ],
    )
    def test_malformed_config_file_exit_2(self, tmp_path, capsysbinary, command, text):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        assert cli.main([command, "--config", str(cfg)]) == 2
        captured = capsysbinary.readouterr()
        assert captured.out == b""
        assert b"ionlab: " in captured.err

    def test_tolerance_not_below_tc_exit_2(self, capsysbinary):
        assert cli.main(["hartree", "--tc", "--tol", "1.5"]) == 2
        captured = capsysbinary.readouterr()
        assert captured.out == b""
        assert b"t_c = " in captured.err and captured.err.count(b"\n") == 1

    def test_convergence_error_exit_3(self):
        # unreachable residual tolerance on a tiny grid
        code = cli.main(
            ["tf", "--Z", "1", "--N", "1", "--grid-n", "200", "--rmin", "1e-3",
             "--rmax", "50", "--tol", "1e-30"]
        )
        assert code == 3

    @pytest.mark.parametrize(
        "argv",
        [["tf", "--Z", "1e210"], ["tf", "--Z", "1e250"], ["tfw", "--Z", "1e250"]],
    )
    def test_charge_whose_newton_start_overflows_exit_3(self, argv, capsysbinary):
        assert cli.main(argv) == 3
        captured = capsysbinary.readouterr()
        assert captured.out == b""
        # the one line of the refusal, with no NumPy warning before it
        assert captured.err.startswith(b"ionlab: convergence error: ")
        assert b"cannot start" in captured.err and captured.err.count(b"\n") == 1

    @pytest.mark.parametrize(
        "argv",
        [["tf", "--Z", "1e80"], ["tf", "--Z", "1e100"], ["tfw", "--Z", "1e100"]],
    )
    def test_charge_whose_newton_step_overflows_exit_3(self, argv, capsysbinary):
        # The start is finite but a trial step overflows: the step
        # backtracks on its non-finite merit, and the solve ends in one
        # line, with no NumPy warning (an error under this suite).
        assert cli.main(argv) == 3
        captured = capsysbinary.readouterr()
        assert captured.out == b""
        assert captured.err.startswith(b"ionlab: convergence error: ")
        assert b"stalled" in captured.err and captured.err.count(b"\n") == 1

    def test_capacity_error_exit_4(self, monkeypatch):
        monkeypatch.setattr(ionlab.hf, "SECTOR_CAP", 2)
        code = cli.main(["hf", "--z", "2", "--exponents", "0.3,1.2,4.8", "--scan"])
        assert code == 4

    def test_output_file(self, tmp_path):
        out = tmp_path / "report.json"
        assert cli.main(["drop", "--m", "2", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["payload"]["m"] == 2

    def test_missing_config_file_exit_2(self, tmp_path, capsysbinary):
        missing = tmp_path / "absent.json"
        assert cli.main(["drop", "--config", str(missing)]) == 2
        captured = capsysbinary.readouterr()
        assert captured.out == b""
        assert captured.err.startswith(b"ionlab: cannot read config ")

    def test_unwritable_output_path_exit_2(self, tmp_path, capsysbinary):
        out = tmp_path / "no_such_dir" / "report.json"
        assert cli.main(["drop", "--m", "2", "--out", str(out)]) == 2
        captured = capsysbinary.readouterr()
        assert captured.out == b""
        assert captured.err.startswith(b"ionlab: cannot write ")
        assert b"finished" not in captured.err
        assert not out.parent.exists()

    def test_seed_changes_payload(self):
        a = cli.emit(cli.run(cli.RunConfig(command="pairinf", parameters={"samples": 50}, seed=1)))
        b = cli.emit(cli.run(cli.RunConfig(command="pairinf", parameters={"samples": 50}, seed=2)))
        assert a != b


class TestOtherRunners:
    @pytest.mark.parametrize("command", list(cli._COMMANDS))
    def test_runs_on_its_defaults(self, command, capsysbinary):
        assert cli.main([command]) == 0
        doc = json.loads(capsysbinary.readouterr().out, parse_constant=_refuse_constant)
        assert doc["config"] == {
            "command": command, "parameters": {}, "seed": 0, "format": "json",
        }

    def test_tfw_single_charge(self):
        report = cli.run(cli.RunConfig(command="tfw", parameters={"Z": 1.0}))
        assert report.payload["q"] > 0
        assert report.payload["majorant_passed"] is True

    def test_hf_single_sector(self):
        cfg = cli.RunConfig(
            command="hf", parameters={"z": 2.0, "exponents": "0.3,1.2,4.8", "n": 2}
        )
        report = cli.run(cfg)
        assert report.payload["relaxed_gap"] < 1e-6 * (1 + abs(report.payload["E_scf"]))
        assert report.payload["E_exact"] <= report.payload["E_scf"] + 1e-10
        assert report.payload["relaxed_converged"] is True
        assert 1 <= report.diagnostics["relaxed_iterations"] <= 600
        assert report.diagnostics["relaxed_stationarity_gap"] < 1e-9 * (
            1 + abs(report.payload["E_relaxed"])
        )

    def test_hf_relaxed_status_is_deterministic_stdout(self, capsysbinary):
        argv = ["hf", "--z", "2", "--exponents", "0.3,1.2,4.8", "--n", "2"]
        outs = []
        for _ in range(2):
            assert cli.main(argv) == 0
            outs.append(capsysbinary.readouterr().out)
        assert outs[0] == outs[1]
        doc = json.loads(outs[0].decode())
        assert doc["payload"]["relaxed_converged"] is True
        assert set(doc["diagnostics"]) == {
            "scf_iterations", "relaxed_iterations", "relaxed_stationarity_gap",
        }

    def test_hartree_grid_override(self):
        cfg = cli.RunConfig(
            command="hartree", parameters={"t": 0.3, "grid_n": 900}
        )
        report = cli.run(cfg)
        assert report.payload["mu"] > 0

    def test_sigal_runner(self):
        report = cli.run(
            cli.RunConfig(command="sigal", parameters={"n": 10, "trials": 50}, seed=3)
        )
        assert report.payload["basic_all_hold"] is True

    def test_opcheck_ims_x2_at_sharp_bound(self, capsysbinary):
        assert cli.main(["opcheck", "--check", "ims_x2"]) == 0
        rep = json.loads(capsysbinary.readouterr().out.decode())["payload"]["ims_x2"]
        assert rep["bound"] == -0.75
        assert rep["passed"] is True

    def test_opcheck_coarse_grid_exit_2(self, capsysbinary):
        assert cli.main(["opcheck", "--check", "all", "--grid-n", "64"]) == 2
        assert capsysbinary.readouterr().out == b""

    def test_opcheck_double_commutator_at_given_tolerance(self, capsysbinary):
        assert cli.main(["opcheck", "--check", "double_commutator", "--tol", "0.01"]) == 0
        out = capsysbinary.readouterr().out
        assert b'"tolerance":0.01' in out
        assert json.loads(out.decode())["payload"]["double_commutator"]["passed"] is True

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--version"])
        assert exc.value.code == 0
        assert "ionlab" in capsys.readouterr().out


class TestHelpers:
    def test_float_formatting_roundtrip(self):
        for x in (np.pi, 1 / 3, 1e-300, 123456.789e17):
            assert float(cli._fmt(x)) == x

    @pytest.mark.parametrize("x", [float("nan"), float("inf"), -np.inf, np.float64("nan")])
    def test_non_finite_float_is_no_json(self, x):
        with pytest.raises(FormatError):
            cli._json_value({"payload": [1.0, x]})


def _refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


def _readme_commands() -> list:
    """The argv of each `ionlab ...` line in the README's CLI block."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```")[1]
    return [
        shlex.split(line.split("#")[0])[1:]
        for line in block.splitlines()
        if line.startswith("ionlab ")
    ]


class TestReadmeCommands:
    def test_every_readme_command_runs(self, tmp_path, monkeypatch, capsysbinary):
        commands = _readme_commands()
        assert len(commands) == 13
        monkeypatch.chdir(tmp_path)
        for argv in commands:
            if argv == ["--version"]:
                with pytest.raises(SystemExit) as exc:
                    cli.main(argv)
                assert exc.value.code == 0
                continue
            assert cli.main(argv) == 0, argv
            out = capsysbinary.readouterr().out
            if "--out" in argv:
                assert out == b"", argv
            elif "csv" not in argv:
                json.loads(out, parse_constant=_refuse_constant)
        assert (tmp_path / "tf.csv").read_text().startswith("r,rho,phi\n")


def _fresh_python(code: str) -> str:
    """Stdout of ``code`` run in a new interpreter that imports this ionlab."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        check=True,
    ).stdout


class TestLazyImports:
    def test_import_leaves_solvers_unloaded(self):
        """A fresh ``import ionlab`` loads no solver module and no
        scipy.optimize; submodules still resolve as attributes."""
        code = (
            "import sys, ionlab\n"
            "print('scipy.optimize' in sys.modules, 'ionlab.tfw' in sys.modules)\n"
            "print(ionlab.tfw.solve_tfw.__name__, ionlab.ConvergenceError.__name__)\n"
            "from ionlab import tf\n"
            "print(tf.solve_tf.__name__, 'scipy.optimize' in sys.modules)\n"
        )
        out = _fresh_python(code).split("\n")
        assert out[:3] == [
            "False False",
            "solve_tfw ConvergenceError",
            "solve_tf False",
        ]

    def test_every_module_resolves_as_attribute(self):
        """Every module but the entry point loads lazily, the Newton driver
        included: a fresh ``import ionlab`` resolves ``ionlab.krylov``."""
        import pkgutil

        import ionlab

        names = {m.name for m in pkgutil.iter_modules(ionlab.__path__)}
        assert names - {"cli", "errors"} == set(ionlab._SUBMODULES)
        out = _fresh_python("import ionlab; print(ionlab.krylov.__name__)")
        assert out == "ionlab.krylov\n"

    def test_numpy_only_commands_load_no_scipy(self):
        """The point-charge, liquid-drop and finite-basis commands run on
        numpy alone: after all six, no scipy module is loaded."""
        code = (
            "import json, sys\n"
            "from ionlab import cli\n"
            "argvs = ['drop --check-identities', 'sigal', 'hf --n 2', 'hf --scan',\n"
            "         'beta --n 4 --restarts 1', 'pairinf --samples 10']\n"
            "codes = [cli.main(a.split()) for a in argvs]\n"
            "scipy = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
            "print(json.dumps([codes, scipy]))\n"
        )
        codes, scipy_modules = json.loads(_fresh_python(code).splitlines()[-1])
        assert codes == [0] * 6
        assert scipy_modules == []

    def test_radial_commands_load_no_sparse(self):
        """The radial layer holds its tridiagonal matrices as two arrays,
        runs its own GMRES cycle and loads SciPy's compiled LAPACK wrappers
        alone: a TF and a TFW command, a capped Hartree solve and the
        operator checks load no scipy module but scipy.linalg._flapack,
        neither scipy.sparse nor the scipy.linalg package."""
        code = (
            "import json, sys\n"
            "from ionlab import cli, hartree\n"
            "argvs = ['tf --Z 1 --N 2', 'tfw --sweep 1', 'opcheck --grid-n 500']\n"
            "codes = [cli.main(a.split()) for a in argvs]\n"
            "hartree.minimize_e(0.7)\n"
            "scipy = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
            "print(json.dumps([codes, scipy]))\n"
        )
        codes, scipy_modules = json.loads(_fresh_python(code).splitlines()[-1])
        assert codes == [0] * 3
        assert scipy_modules == ["scipy.linalg._flapack"]

    @pytest.mark.parametrize("first", ["ionlab", "scipy"])
    def test_lapack_wrappers_are_scipys_in_either_import_order(self, first):
        """The wrappers radial and krylov load are scipy.linalg.lapack's own
        compiled functions whether the package is imported after them or
        before, and the package still works after either order."""
        imports = {
            "ionlab": "from ionlab import krylov, radial\nimport scipy.linalg, scipy.optimize\n",
            "scipy": "import scipy.linalg, scipy.optimize\nfrom ionlab import krylov, radial\n",
        }[first]
        code = imports + (
            "import json, sys\n"
            "import numpy as np\n"
            "fortran = type(radial.dstebz)\n"
            "used = {f'{m.__name__}.{n}': n for m in (radial, krylov)\n"
            "        for n, v in vars(m).items() if type(v) is fortran}\n"
            "same = {k: getattr(sys.modules[k.rsplit('.', 1)[0]], n)\n"
            "        is getattr(scipy.linalg.lapack, n) for k, n in used.items()}\n"
            "w = scipy.linalg.eigh_tridiagonal(np.array([2.0, 2.0]), np.array([1.0]),\n"
            "                                  eigvals_only=True)\n"
            "root = scipy.optimize.brentq(lambda x: x * x - 2.0, 0.0, 2.0)\n"
            "flapack = radial._flapack is sys.modules['scipy.linalg._flapack']\n"
            "print(json.dumps([same, flapack, w.tolist(), root]))\n"
        )
        same, flapack, w, root = json.loads(_fresh_python(code).splitlines()[-1])
        assert same == {
            f"ionlab.{name}": True
            for name in ("radial.dgttrf", "radial.dgttrs", "radial.dpttrf", "radial.dpttrs",
                         "radial.dstebz", "krylov.dlartg")
        }
        assert flapack
        assert w == pytest.approx([1.0, 3.0], rel=1e-14)
        assert root == pytest.approx(np.sqrt(2.0), rel=1e-12)

    def test_unknown_attribute_raises(self):
        import ionlab

        with pytest.raises(AttributeError, match="no_such_module"):
            ionlab.no_such_module


@pytest.mark.parametrize("name", ionlab._SUBMODULES)
def test_every_exported_name_resolves(name):
    """A name deleted from a module is deleted from its ``__all__`` too;
    ``krylov`` declares none."""
    module = getattr(ionlab, name)
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []
