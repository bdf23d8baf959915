import cmath
import json
import math
import random

import pytest

from thetahyp import (
    Nome,
    ThetaSeriesSpec,
    VwpSpec,
    sample_bailey,
    sample_ft,
    sample_multi1,
    sample_multi2,
    verify_bailey,
    verify_ft_sum,
    verify_multi1,
    verify_multi2,
)
from thetahyp import cli
from thetahyp.cli import build_parser, main
from thetahyp.report import EllipticityReport

NOME = Nome(0.35 + 0.1j, 0.25 + 0.05j)


def run(argv):
    return main(argv)


def read(path):
    return json.loads(path.read_text())


class TestSampleVerifyRoundTrip:
    @pytest.mark.parametrize("target", ["ft_sum", "bailey", "multi1", "multi2"])
    def test_round_trip_passes(self, tmp_path, target):
        params = tmp_path / "params.json"
        out = tmp_path / "report.json"
        assert run(["sample", target, "--seed", "3", "--draws", "3", "--N", "2",
                    "--n", "2", "--out", str(params)]) == 0
        assert run(["verify", target, str(params), "--out", str(out)]) == 0
        payload = read(out)
        assert payload["summary"]["pass"] is True
        assert payload["summary"]["failed"] == 0
        assert len(payload["reports"]) == 3

    def test_verify_without_input_samples(self, tmp_path):
        out = tmp_path / "report.json"
        assert run(["verify", "ft_sum", "--draws", "2", "--seed", "5",
                    "--out", str(out)]) == 0
        assert read(out)["summary"]["total"] == 2

    # the report of verify <target> --n 2 --N 3 at one seed, built from the
    # public sampler and verifier at the CLI's default tolerance
    PUBLIC_REPORTS = {
        "ft_sum": lambda seed: verify_ft_sum(sample_ft(seed, 3, NOME), tol=1e-8),
        "bailey": lambda seed: verify_bailey(sample_bailey(seed, 3, NOME), tol=1e-8),
        "multi1": lambda seed: verify_multi1(sample_multi1(seed, 2, 3, NOME), tol=1e-8),
        "multi2": lambda seed: verify_multi2(sample_multi2(seed, 2, (3, 3), NOME), tol=1e-8),
    }

    @pytest.mark.parametrize("target", sorted(PUBLIC_REPORTS))
    def test_sampled_verify_matches_public_verifier(self, tmp_path, target):
        # the CLI checks each draw on the sides its sampler admitted; the
        # report must equal verify_*(sample_*(seed + i)) byte for byte
        reports = [self.PUBLIC_REPORTS[target](5 + i) for i in range(3)]
        failed = sum(1 for r in reports if not r.passed)
        payload = {
            "target": target,
            "reports": [r.to_json() for r in reports],
            "summary": {"total": 3, "failed": failed, "pass": failed == 0},
        }
        want = (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode("utf-8")
        out = tmp_path / "report.json"
        argv = ["verify", target, "--n", "2", "--N", "3", "--seed", "5", "--draws", "3", "--out", str(out)]
        assert run(argv) == (0 if failed == 0 else 1)
        assert out.read_bytes() == want
        # the parser is shared between calls; a usage error must not change it
        out.unlink()
        assert run(["verify", target, "--N", "three"]) == 2
        assert run(argv) == (0 if failed == 0 else 1)
        assert out.read_bytes() == want
        assert build_parser() is build_parser()

    def test_determinism_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for path in (a, b):
            assert run(["sample", "ft_sum", "--seed", "11", "--draws", "2",
                        "--out", str(path)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestEval:
    def test_trivial_truncated_sum_is_one(self, tmp_path):
        # N = 0 termination leaves only the unit leading term
        params = sample_ft(seed=7, N=0, nome=NOME)
        q = NOME.q
        spec = ThetaSeriesSpec(
            "unilateral_E",
            (q**-0,) + params.t[:2],  # irrelevant content; we only sum n = 0
            (0.4 + 0.1j, 0.5 - 0.2j),
            0,
            0.3 + 0j,
            NOME,
        )
        inp = tmp_path / "spec.json"
        out = tmp_path / "value.json"
        obj = spec.to_json()
        obj["trunc"] = 0
        inp.write_text(json.dumps(obj))
        assert run(["eval", str(inp), "--out", str(out)]) == 0
        assert read(out)["value"] == [1.0, 0.0]

    def test_bilateral_needs_window(self, tmp_path):
        spec = ThetaSeriesSpec(
            "bilateral_G", (0.4 + 0.1j,), (1.6 - 0.2j,), 0, 0.5 + 0.1j, NOME
        )
        inp = tmp_path / "spec.json"
        inp.write_text(json.dumps(spec.to_json()))
        assert run(["eval", str(inp)]) == 2

    E_SPEC = ThetaSeriesSpec("unilateral_E", (0.4 + 0.1j,), (), 0, 0.5 + 0.1j, NOME).to_json()
    G_SPEC = ThetaSeriesSpec("bilateral_G", (0.4 + 0.1j,), (1.6 - 0.2j,), 0, 0.5 + 0.1j, NOME).to_json()
    VWP_SPEC = VwpSpec(0.5 + 0.2j, (0.4 + 0.1j,), 0.3 + 0j, NOME, "bilateral").to_json()

    @pytest.mark.parametrize(
        "obj, error",
        [
            ({**E_SPEC, "numerator": 5}, "invalid series spec"),
            ({**E_SPEC, "denominator": [[1.0]]}, "invalid series spec"),
            ({**E_SPEC, "q": None}, "invalid series spec"),
            ({key: v for key, v in E_SPEC.items() if key != "alpha"}, "invalid series spec"),
            ({**E_SPEC, "trunc": 3.7}, "trunc"),
            ({**E_SPEC, "trunc": -1}, "trunc"),
            ({**E_SPEC, "trunc": "3"}, "trunc"),
            ({**E_SPEC, "trunc": True}, "trunc"),
            ({**VWP_SPEC, "window": 5}, "window"),
            ({**VWP_SPEC, "window": [1, 3.7]}, "window"),
            ({**VWP_SPEC, "window": [1]}, "window"),
            ({**G_SPEC, "window": [False, 2]}, "window"),
            ({**VWP_SPEC, "window": [3, 1]}, "empty window"),
            ({**G_SPEC, "window": [3, 1]}, "empty window"),
            # an extent the spec's kind would ignore
            ({**G_SPEC, "window": [-2, 2], "trunc": 7}, "takes no trunc"),
            ({**VWP_SPEC, "window": [-2, 2], "trunc": 7}, "takes no trunc"),
            ({**E_SPEC, "window": [0, 99]}, "takes no window"),
            ({**VWP_SPEC, "kind": "vwp_unilateral", "window": [0, 99]}, "takes no window"),
        ],
    )
    def test_malformed_input_exits_2(self, tmp_path, capsys, obj, error):
        inp = tmp_path / "spec.json"
        inp.write_text(json.dumps(obj))
        assert run(["eval", str(inp)]) == 2
        assert error in json.loads(capsys.readouterr().out)["error"]


# the balanced spec the CI console-script step writes to balanced.json
CI_BALANCED = ThetaSeriesSpec(
    "unilateral_E",
    (0.5 + 0.1j, 0.4 - 0.2j, 0.6 + 0.05j),
    (0.45 + 0.15j, 0.5635220125786163 - 0.561006289308176j),
    0,
    0.4 + 0j,
    NOME,
)


class TestEllipticity:
    def test_top_level_array_of_specs(self, tmp_path, capsys):
        # ellipticity reads its entries as verify does: a top-level array
        # is a list of specs
        inp = tmp_path / "specs.json"
        inp.write_text(json.dumps([CI_BALANCED.to_json()] * 2))
        assert run(["ellipticity", str(inp), "--draws", "5"]) == 0
        assert json.loads(capsys.readouterr().out)["summary"] == {"total": 2, "failed": 0, "pass": True}

    def test_balanced_spec_passes(self, tmp_path, capsys):
        q = NOME.q
        num = (0.5 + 0.1j, 0.4 - 0.2j, 0.6 + 0.05j)
        import math

        d0 = 0.45 + 0.15j
        d1 = math.prod(num, start=1 + 0j) / (q * d0)
        spec = ThetaSeriesSpec("unilateral_E", num, (d0, d1), 0, 0.4 + 0j, NOME)
        inp = tmp_path / "spec.json"
        inp.write_text(json.dumps(spec.to_json()))
        assert run(["ellipticity", str(inp)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["pass"] is True
        assert payload["reports"][0]["pass"] is True


class TestErrorPaths:
    def test_malformed_json_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run(["verify", "ft_sum", str(bad)]) == 2
        diag = json.loads(capsys.readouterr().out)
        assert diag["error"]

    def test_missing_file_exits_2(self, tmp_path):
        assert run(["eval", str(tmp_path / "nope.json")]) == 2

    def test_unwritable_out_exits_2_with_the_diagnostic_on_stderr(self, tmp_path, capsys):
        # the FileNotFoundError of --out in a missing directory ended the
        # command with a traceback and exit 1
        out = tmp_path / "missing" / "x.json"
        assert run(["verify", "ft_sum", "--N", "3", "--draws", "1", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        diag = json.loads(captured.err)
        assert (captured.out, diag["command"]) == ("", "verify")
        assert diag["error"].startswith("FileNotFoundError: ")
        assert not out.parent.exists()

    def test_zero_draws_exits_2(self):
        assert run(["sample", "ft_sum", "--draws", "0"]) == 2

    def test_verify_zero_draws_exits_2(self, capsys):
        # zero sampled draws would pass vacuously with no report
        assert run(["verify", "ft_sum", "--N", "3", "--draws", "0"]) == 2
        assert "--draws" in json.loads(capsys.readouterr().out)["error"]

    def test_ellipticity_zero_draws_exits_2(self, tmp_path, capsys):
        spec = ThetaSeriesSpec("unilateral_E", (0.5 + 0.1j,), (0.4 - 0.2j,), 0, 0.4 + 0j, NOME)
        inp = tmp_path / "spec.json"
        inp.write_text(json.dumps(spec.to_json()))
        assert run(["ellipticity", str(inp), "--draws", "0"]) == 2
        assert "--draws" in json.loads(capsys.readouterr().out)["error"]

    def test_untruncated_non_finite_sum_exits_2(self, tmp_path, capsys):
        # the CI balanced spec has no trunc, and its terms overflow from n = 19
        num = (0.5 + 0.1j, 0.4 - 0.2j, 0.6 + 0.05j)
        den = (0.45 + 0.15j, 0.5635220125786163 - 0.561006289308176j)
        inp = tmp_path / "balanced.json"
        inp.write_text(json.dumps(ThetaSeriesSpec("unilateral_E", num, den, 0, 0.4 + 0j, NOME).to_json()))
        assert run(["eval", str(inp)]) == 2
        assert "FloatRangeError: term 19 " in json.loads(capsys.readouterr().out)["error"]

    def test_untruncated_sum_whose_true_terms_overflow_exits_2(self, tmp_path, capsys):
        # CI's steep.json: the balanced spec at alpha = -8, whose true |c_14|
        # is about 3.1e311
        inp = tmp_path / "steep.json"
        inp.write_text(json.dumps({**CI_BALANCED.to_json(), "alpha": -8}))
        assert run(["eval", str(inp)]) == 2
        assert strict(capsys.readouterr().out)["error"].startswith("FloatRangeError: term 14 of the series")

    def test_divergent_sum_exits_2(self, tmp_path, capsys):
        # every term of this E sum is 1: it printed value 512 and exited 0
        obj = {"kind": "unilateral_E", "numerator": [[0.99, 0]], "denominator": [], "alpha": [0, 0],
               "z": [1, 0], "q": [0.99, 0], "p": [1e-6, 0]}
        inp = tmp_path / "spec.json"
        inp.write_text(json.dumps(obj))
        assert run(["eval", str(inp)]) == 2
        assert "did not converge in 512 terms" in json.loads(capsys.readouterr().out)["error"]

    @pytest.mark.parametrize(
        "command, flag",
        [("eval", ["--N", "3"]), ("eval", ["--draws", "3"]), ("ellipticity", ["--N", "3"]),
         ("ellipticity", ["--nome", "0.3,0.1,0.2,0.05"]), ("sample", ["--tol", "1e-8"])],
    )
    def test_flag_the_subcommand_does_not_read_exits_2(self, tmp_path, command, flag):
        # each subcommand takes only the flags it reads: the command passes
        # on its own, and a valid value of a flag it would ignore is refused
        vwp = VwpSpec(0.5 + 0.2j, (0.4 + 0.1j, 0.5 - 0.3j), 0.3 - 0.1j, NOME, "unilateral")
        num = (0.5 + 0.1j, 0.4 - 0.2j, 0.6 + 0.05j)
        d0 = 0.45 + 0.15j
        balanced = ThetaSeriesSpec("unilateral_E", num, (d0, math.prod(num) / (NOME.q * d0)), 0, 0.4 + 0j, NOME)
        (tmp_path / "eval.json").write_text(json.dumps({**vwp.to_json(), "trunc": 3}))
        (tmp_path / "ellipticity.json").write_text(json.dumps(balanced.to_json()))
        argv = {
            "eval": ["eval", str(tmp_path / "eval.json")],
            "ellipticity": ["ellipticity", str(tmp_path / "ellipticity.json"), "--draws", "3"],
            "sample": ["sample", "ft_sum", "--draws", "1"],
        }[command]
        assert run(argv) == 0
        assert run(argv + flag) == 2

    def test_bad_tol_exits_2(self):
        assert run(["verify", "ft_sum", "--tol", "2.0", "--draws", "1"]) == 2

    def test_broken_balancing_exits_2(self, tmp_path):
        params = sample_ft(seed=3, N=2, nome=NOME)
        obj = params.to_json()
        obj["t"][1][0] *= 1.1  # violates prod t = q
        inp = tmp_path / "params.json"
        inp.write_text(json.dumps({"params": [obj]}))
        assert run(["verify", "ft_sum", str(inp)]) == 2

    def test_verify_empty_params_exits_2(self, tmp_path, capsys):
        # an input with no parameter sets would pass vacuously with no report
        inp = tmp_path / "params.json"
        inp.write_text("[]")
        assert run(["verify", "ft_sum", str(inp)]) == 2
        assert "nothing to check" in json.loads(capsys.readouterr().out)["error"]

    def test_verify_ge_split_empty_specs_exits_2(self, tmp_path, capsys):
        inp = tmp_path / "specs.json"
        inp.write_text(json.dumps({"specs": []}))
        assert run(["verify", "ge_split", str(inp)]) == 2
        assert "nothing to check" in json.loads(capsys.readouterr().out)["error"]

    def test_ellipticity_empty_specs_exits_2(self, tmp_path, capsys):
        inp = tmp_path / "specs.json"
        inp.write_text(json.dumps({"specs": []}))
        assert run(["ellipticity", str(inp)]) == 2
        assert "nothing to check" in json.loads(capsys.readouterr().out)["error"]

    @pytest.mark.parametrize("specs", [5, [5]])
    def test_ellipticity_non_object_specs_exit_2(self, tmp_path, capsys, specs):
        # iterating such specs raises TypeError or AttributeError, which main
        # does not catch, so the check has to come first
        inp = tmp_path / "specs.json"
        inp.write_text(json.dumps({"specs": specs}))
        assert run(["ellipticity", str(inp)]) == 2
        assert "array of spec objects" in json.loads(capsys.readouterr().out)["error"]

    def test_ellipticity_without_admitted_points_exits_2(self, tmp_path, capsys):
        # with z = 1e15 every reference value is above 1e12, so no sample
        # point is admitted
        inp = tmp_path / "big.json"
        inp.write_text(json.dumps({**CI_BALANCED.to_json(), "z": [1e15, 0]}))
        assert run(["ellipticity", str(inp)]) == 2
        assert "NonConvergenceError: index_p_shift: " in json.loads(capsys.readouterr().out)["error"]

    @pytest.mark.parametrize("command", ["ellipticity", "eval"])
    def test_nome_next_to_the_unit_circle_exits_2(self, tmp_path, capsys, command):
        # at p = 1 - 1e-12 theta's prefactor could take 3.8e7 factors; theta
        # refuses the nome at once, before building 3.8e7 powers
        inp = tmp_path / "spec.json"
        inp.write_text(json.dumps({**CI_BALANCED.to_json(), "p": [1 - 1e-12, 0.0]}))
        assert run([command, str(inp)]) == 2
        assert "ThetaDomainError: theta needs |p| <= 0.99997765" in json.loads(capsys.readouterr().out)["error"]

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "bailey", "--N", "-1", "--draws", "1"],
            ["verify", "ft_sum", "--N", "-1", "--draws", "1"],
            ["verify", "multi1", "--N", "-1", "--draws", "1"],
            ["verify", "multi2", "--N", "-1", "--draws", "1"],
            ["sample", "ft_sum", "--N", "-2", "--draws", "1"],
        ],
    )
    def test_negative_depth_exits_2(self, capsys, argv):
        # a negative N would leave the left-hand sum empty (bailey passed
        # vacuously with lhs = rhs = 0)
        assert run(argv) == 2
        assert "truncation depth N" in json.loads(capsys.readouterr().out)["error"]

    def test_overflowing_depth_exits_2(self, tmp_path, capsys):
        # q^-N overflows complex arithmetic, in the sampler's draw and in the
        # constraint check of a parameter file
        assert run(["verify", "ft_sum", "--N", "1000", "--draws", "1"]) == 2
        assert "OverflowError" in json.loads(capsys.readouterr().out)["error"]
        inp = tmp_path / "params.json"
        inp.write_text(json.dumps({**sample_ft(seed=3, N=2, nome=NOME).to_json(), "N": 1000}))
        assert run(["verify", "ft_sum", str(inp)]) == 2
        assert "OverflowError" in json.loads(capsys.readouterr().out)["error"]

    def test_non_integer_depth_in_a_file_exits_2(self, tmp_path, capsys):
        # int(2.5) would verify the file at N = 2
        inp = tmp_path / "params.json"
        inp.write_text(json.dumps({**sample_ft(seed=3, N=2, nome=NOME).to_json(), "N": 2.5}))
        assert run(["verify", "ft_sum", str(inp)]) == 2
        assert "N must be a JSON integer" in json.loads(capsys.readouterr().out)["error"]

    def test_oversized_lattice_exits_2(self, tmp_path, capsys):
        # multi2 (20, 2) would list its 3^20 lattice points before summing
        # one; the parameter class refuses it on the sampled and the file path
        assert run(["verify", "multi2", "--n", "20", "--N", "2", "--draws", "1"]) == 2
        assert "more than 65536 points" in json.loads(capsys.readouterr().out)["error"]
        params = sample_multi2(seed=3, n=1, Ns=(2,), nome=NOME).to_json()
        inp = tmp_path / "params.json"
        inp.write_text(json.dumps({**params, "n": 20, "t": params["t"][:1] * 44, "Ns": [2] * 20}))
        assert run(["verify", "multi2", str(inp)]) == 2
        assert "more than 65536 points" in json.loads(capsys.readouterr().out)["error"]

    @pytest.mark.parametrize("field", ["t[2]", "q"])
    def test_non_complex_entry_in_a_file_names_its_field(self, tmp_path, capsys, field):
        params = sample_ft(seed=3, N=2, nome=NOME).to_json()
        if field == "q":
            params["q"] = True
        else:
            params["t"][2] = True
        inp = tmp_path / "params.json"
        inp.write_text(json.dumps(params))
        assert run(["verify", "ft_sum", str(inp)]) == 2
        error = json.loads(capsys.readouterr().out)["error"]
        assert error == f"invalid ft_sum parameters: {field}: expected [re, im] pair, got True"

    def test_unknown_target_exits_2(self):
        assert run(["verify", "nonsense"]) == 2

    def test_non_object_eval_input_exits_2(self, tmp_path, capsys):
        inp = tmp_path / "spec.json"
        inp.write_text("[1, 2]")
        assert run(["eval", str(inp)]) == 2
        assert json.loads(capsys.readouterr().out)["error"] == "eval input must be a JSON object"

    def test_ge_split_without_input_exits_2(self, capsys):
        # ge_split has no sampler, so there is nothing to draw
        assert run(["verify", "ge_split"]) == 2
        assert "needs an input file" in json.loads(capsys.readouterr().out)["error"]

    def test_diagnostic_falls_back_to_stderr_when_out_is_unwritable(self, tmp_path, capsys):
        out = tmp_path / "missing" / "out.json"
        assert run(["verify", "ft_sum", "--draws", "0", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert (captured.out, json.loads(captured.err)) == ("", {"error": "--draws must be >= 1", "command": "verify"})
        assert not out.parent.exists()


class TestNomeAndBand:
    def test_valid_values_are_read(self, tmp_path):
        out = tmp_path / "params.json"
        argv = ["sample", "ft_sum", "--N", "2", "--draws", "2", "--nome", "0.3,0.1,0.2,0.05", "--band", "0.5,0.8"]
        assert run(argv + ["--out", str(out)]) == 0
        for params in read(out)["params"]:
            assert (params["q"], params["p"]) == ([0.3, 0.1], [0.2, 0.05])
            # the four free t's are drawn in the band
            assert all(0.5 <= abs(complex(*t)) <= 0.8 for t in params["t"][:4])

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--nome", "0.3,0.1,0.2", "--nome expects q_re,q_im,p_re,p_im"),
            ("--nome", "0.3,0.1,0.2,x", "--nome expects four reals"),
            ("--nome", "1.2,0,0.2,0.05", "ThetaDomainError: "),
            # abs(nan) >= 1 is False: a nan q was accepted, and the sampler
            # then blamed a vwp parameter
            ("--nome", "nan,0,0.2,0.05", "ThetaDomainError: |q| must be < 1, got q = (nan"),
            ("--band", "0.5", "--band expects lo,hi"),
            ("--band", "0.5,x", "--band expects two reals"),
            ("--band", "0.8,0.5", "--band expects 0 < lo < hi < 1"),
            ("--band", "0.5,1.0", "--band expects 0 < lo < hi < 1"),
        ],
    )
    def test_refusal_exits_2(self, capsys, flag, value, message):
        assert run(["sample", "ft_sum", "--draws", "1", flag, value]) == 2
        assert json.loads(capsys.readouterr().out)["error"].startswith(message)


class TestGESplitVerify:
    def test_ge_split_round_trip(self, tmp_path):
        import numpy as np

        rng = np.random.default_rng(0)

        def draw():
            while True:
                w = complex(rng.uniform(-0.9, 0.9), rng.uniform(-0.9, 0.9))
                if 0.5 <= abs(w) <= 0.9:
                    return w

        specs = []
        for _ in range(3):
            from thetahyp import VwpSpec

            spec = VwpSpec(draw(), tuple(draw() for _ in range(4)), draw(), NOME, "bilateral")
            entry = spec.to_json()
            entry["windows"] = [3, 4]
            specs.append(entry)
        inp = tmp_path / "specs.json"
        out = tmp_path / "report.json"
        inp.write_text(json.dumps({"specs": specs}))
        assert run(["verify", "ge_split", str(inp), "--tol", "1e-10", "--out", str(out)]) == 0
        assert read(out)["summary"]["pass"] is True

    @pytest.mark.parametrize("windows", [5, [3], [3, "4"], [3.0, 4], [True, 4], None, [-1, 2], [2, -1]])
    def test_bad_windows_exit_2(self, tmp_path, capsys, windows):
        from thetahyp import VwpSpec

        spec = VwpSpec(0.6 + 0.2j, (0.55 - 0.3j, -0.48 + 0.4j, 0.71 + 0.12j, -0.2 - 0.6j),
                       0.45 + 0.15j, NOME, "bilateral")
        entry = spec.to_json()
        entry["windows"] = windows
        inp = tmp_path / "specs.json"
        inp.write_text(json.dumps({"specs": [entry]}))
        assert run(["verify", "ge_split", str(inp)]) == 2
        assert "windows" in json.loads(capsys.readouterr().out)["error"]

    def test_non_string_kind_exits_2(self, tmp_path, capsys):
        entry = {**VwpSpec(0.6 + 0.2j, (0.55 - 0.3j,), 0.45 + 0.15j, NOME, "bilateral").to_json(), "kind": 5}
        inp = tmp_path / "specs.json"
        inp.write_text(json.dumps({"specs": [entry]}))
        assert run(["verify", "ge_split", str(inp)]) == 2
        assert "kind must be a JSON string" in json.loads(capsys.readouterr().out)["error"]

    @pytest.mark.parametrize("specs", [[5], ["spec"], [[1, 2]], [None]])
    def test_non_object_entry_exits_2(self, tmp_path, capsys, specs):
        inp = tmp_path / "specs.json"
        inp.write_text(json.dumps({"specs": specs}))
        assert run(["verify", "ge_split", str(inp)]) == 2
        assert json.loads(capsys.readouterr().out)["error"]

    # the deep-window spec of tests/test_factor_table.py
    DEEP_SPEC = VwpSpec(0.62 + 0.21j, (0.55 - 0.3j, -0.48 + 0.4j, 0.71 + 0.12j, -0.2 - 0.6j),
                        0.45 + 0.15j, NOME, "bilateral")

    @pytest.mark.parametrize("M, code", [(8, 0), (22, 2)])
    def test_deep_window(self, tmp_path, capsys, M, code):
        # at M = 22 the coefficient at n = -22 reads theta(t0^2 q^-44), which
        # leaves the float64 range; that is refused with the term named, where
        # a ZeroDivisionError traceback once exited 1 as if the check had failed
        inp = tmp_path / "specs.json"
        inp.write_text(json.dumps({"specs": [{"spec": self.DEEP_SPEC.to_json(), "windows": [M, M]}]}))
        assert run(["verify", "ge_split", str(inp), "--tol", "1e-10"]) == code
        out = json.loads(capsys.readouterr().out)
        if code == 0:
            assert out["summary"]["pass"] is True
        else:
            assert out["error"].startswith("FloatRangeError: term -22 of the series")

    def test_non_finite_side_exits_2(self, tmp_path, capsys):
        # at M = 18 the window's coefficient at n = -18 is NaN; the report
        # carried rel_err NaN, written as an invalid JSON token, and exited 1
        inp = tmp_path / "specs.json"
        inp.write_text(json.dumps({"specs": [{"spec": self.DEEP_SPEC.to_json(), "windows": [18, 18]}]}))
        assert run(["verify", "ge_split", str(inp), "--tol", "1e-10"]) == 2
        error = json.loads(capsys.readouterr().out)["error"]
        assert error.startswith("FloatRangeError: term -18 of the series is not finite")

    def test_non_finite_window_eval_exits_2(self, tmp_path, capsys):
        # the same window through eval wrote NaN tokens and exited 0
        inp = tmp_path / "spec.json"
        inp.write_text(json.dumps({**self.DEEP_SPEC.to_json(), "window": [-18, 18]}))
        assert run(["eval", str(inp)]) == 2
        error = json.loads(capsys.readouterr().out)["error"]
        assert error.startswith("FloatRangeError: term -18 of the series is not finite")

    def test_deep_bilateral_eval_exits_2(self, tmp_path, capsys):
        inp = tmp_path / "spec.json"
        inp.write_text(json.dumps({**self.DEEP_SPEC.to_json(), "window": [-22, 22]}))
        assert run(["eval", str(inp)]) == 2
        assert json.loads(capsys.readouterr().out)["error"].startswith("FloatRangeError: term -22 of the series")


def strict(text):
    """text parsed as strict JSON: a NaN or Infinity token raises."""

    def refuse(token):
        raise ValueError(f"non-finite JSON token {token}")

    return json.loads(text, parse_constant=refuse)


def _point(rng, lo, hi):
    """A complex number with modulus in [lo, hi] and a uniform angle."""
    return cmath.rect(rng.uniform(lo, hi), rng.uniform(-math.pi, math.pi))


def _pairs(rng, count, lo=0.3, hi=1.2):
    return [[z.real, z.imag] for z in (_point(rng, lo, hi) for _ in range(count))]


def _fuzz_argv(rng, path):
    """One seeded CLI run: a subcommand and target with drawn nome, band,
    depths, windows and specs. Flag values are passed as --flag=value, since
    argparse reads a leading "-" in a separate value as a flag."""
    q, p = _point(rng, 0.2, 0.7), _point(rng, 0.05, 0.8)
    nome = {"q": [q.real, q.imag], "p": [p.real, p.imag]}
    command = rng.choice(["sample", "verify", "ge_split", "eval", "ellipticity"])
    if command in ("sample", "verify"):
        lo = rng.uniform(0.05, 0.9)
        return [command, rng.choice(list(cli._TARGETS)), f"--nome={q.real},{q.imag},{p.real},{p.imag}",
                f"--band={lo},{rng.uniform(lo, 0.99)}", f"--n={rng.randint(1, 3)}", f"--N={rng.randint(0, 7)}",
                f"--draws={rng.randint(1, 2)}", f"--seed={rng.randrange(1000)}"]
    if command == "ge_split":
        spec = {"kind": "vwp_bilateral", "t0": _pairs(rng, 1)[0], "ts": _pairs(rng, rng.randint(0, 5)),
                "z": _pairs(rng, 1, 0.05, 2)[0], **nome}
        path.write_text(json.dumps({"specs": [{"spec": spec, "windows": [rng.randint(0, 30), rng.randint(0, 30)]}]}))
        return ["verify", "ge_split", str(path)]
    kind = rng.choice(["unilateral_E", "bilateral_G", "vwp_unilateral", "vwp_bilateral"])
    if kind.startswith("vwp"):
        spec = {"kind": kind, "t0": _pairs(rng, 1)[0], "ts": _pairs(rng, rng.randint(0, 5))}
    else:
        count = rng.randint(1, 4)
        spec = {"kind": kind, "numerator": _pairs(rng, count), "alpha": rng.randint(0, 2),
                "denominator": _pairs(rng, count - (kind == "unilateral_E"))}
    spec.update(nome, z=_pairs(rng, 1, 0.05, 2)[0])
    if command == "ellipticity" and not kind.startswith("vwp"):
        path.write_text(json.dumps({"specs": [spec]}))
        return ["ellipticity", str(path), f"--draws={rng.randint(1, 5)}", f"--seed={rng.randrange(1000)}"]
    if kind.startswith("bilateral") or kind == "vwp_bilateral":
        spec["window"] = [-rng.randint(0, 30), rng.randint(0, 30)]
    else:
        spec["trunc"] = rng.randint(0, 60)
    path.write_text(json.dumps(spec))
    return ["eval", str(path)]


class TestStrictJson:
    def test_non_finite_report_exits_2(self, tmp_path, capsys, monkeypatch):
        # the report is refused before anything is written, where the CLI
        # wrote an Infinity token and exited 1
        report = EllipticityReport("index_p_shift", math.inf, 5, False)
        monkeypatch.setattr(cli, "check_ellipticity", lambda *args, **kw: report)
        inp = tmp_path / "specs.json"
        inp.write_text(json.dumps(CI_BALANCED.to_json()))
        assert run(["ellipticity", str(inp)]) == 2
        error = strict(capsys.readouterr().out)["error"]
        assert error.startswith("FloatRangeError: the output holds a NaN or infinite number")

    def test_fuzzed_runs_write_strict_json(self, tmp_path, capsys):
        # each run exits 0 or 1 with a strict JSON result, or 2 with a strict
        # JSON diagnostic; an exception escaping main fails the test
        rng = random.Random(1)
        codes = []
        for i in range(200):
            argv = _fuzz_argv(rng, tmp_path / f"input{i}.json")
            code = run(argv)
            out = strict(capsys.readouterr().out)
            assert code in (0, 1, 2) and ("error" in out) == (code == 2), (argv, out)
            codes.append(code)
        assert set(codes) == {0, 1, 2}
