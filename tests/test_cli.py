import io
import json
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest

from cpdilate import dilation, prodsys
from cpdilate.chan import KrausFamily, channel_to_json, identity_channel
from cpdilate.cli import build_parser, main
from cpdilate.linalg import DEFAULT_TOL, DEFAULT_VERIFY_TOL

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def run_cli(*argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(list(argv))
    out = buf.getvalue()
    return code, (json.loads(out) if out.strip().startswith("{") else out)


def write_channel(tmp_path, name, fam):
    path = tmp_path / name
    path.write_text(json.dumps(channel_to_json(fam)))
    return str(path)


class TestStochasticRouting:
    def test_paper_pair_exits_one_with_witness(self):
        code, rep = run_cli(
            "strong-commute",
            str(FIXTURES / "stochastic_p_3x3.json"),
            str(FIXTURES / "stochastic_q_3x3.json"),
        )
        assert code == 1
        assert rep["route"] == "diagonal"
        assert rep["commute"] is True
        assert rep["commutation_residual"] <= 1e-12
        assert rep["card_holds"] is False
        assert [0, 0, 2, 3] in rep["witnesses"]
        assert rep["strongly_commute"] is False

    def test_golden_report(self):
        code, rep = run_cli(
            "strong-commute",
            str(FIXTURES / "stochastic_p_3x3.json"),
            str(FIXTURES / "stochastic_q_3x3.json"),
        )
        golden = json.loads((FIXTURES / "golden_strong_commute_3x3.json").read_text())
        assert code == 1
        assert rep == golden

    def test_byte_stable_across_runs(self):
        args = (
            "strong-commute",
            str(FIXTURES / "stochastic_p_3x3.json"),
            str(FIXTURES / "stochastic_q_3x3.json"),
        )
        outs = []
        for _ in range(2):
            buf = io.StringIO()
            with redirect_stdout(buf):
                main(list(args))
            outs.append(buf.getvalue())
        assert outs[0] == outs[1]


class TestChannels:
    def test_classify_identity(self):
        code, rep = run_cli("classify", str(FIXTURES / "channel_identity_2.json"))
        assert code == 0
        assert rep["is_cp"] and rep["is_unital"] and rep["is_contractive"]
        assert "tol" in rep

    def test_commute_exit_codes(self, tmp_path):
        hadamard = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
        phase = np.diag([1.0, 1.0j])
        h = write_channel(tmp_path, "h.json", KrausFamily(2, (hadamard,)))
        s = write_channel(tmp_path, "s.json", KrausFamily(2, (phase,)))
        code, rep = run_cli("commute", h, h)
        assert code == 0 and rep["commute"]
        code, rep = run_cli("commute", h, s)
        assert code == 1 and not rep["commute"]

    def test_strong_commute_certificate(self):
        code, rep = run_cli(
            "strong-commute",
            str(FIXTURES / "channel_conj_z.json"),
            str(FIXTURES / "channel_conj_x.json"),
        )
        assert code == 0
        assert rep["u"] == [[[-1.0, 0.0]]]
        assert rep["unitarity_residual"] <= 1e-9
        assert rep["intertwining_residual"] <= 1e-9

    def test_prodsys_verify(self):
        code, rep = run_cli(
            "prodsys",
            "verify",
            str(FIXTURES / "channel_conj_z.json"),
            str(FIXTURES / "channel_conj_x.json"),
            "--horizon", "2", "2",
        )
        assert code == 0
        assert rep["passed"]

    def test_dilate_zx(self):
        code, rep = run_cli(
            "dilate",
            str(FIXTURES / "channel_conj_z.json"),
            str(FIXTURES / "channel_conj_x.json"),
            "--horizon", "2", "2",
            "--margin", "1", "1",
        )
        assert code == 0
        assert rep["dimK"] == 2
        assert rep["gram_min_eig"] >= -1e-10
        for value in rep["residuals"].values():
            assert value <= 1e-8
        assert rep["minimality"]["span_dim"] == 2
        assert rep["minimality"]["commutant_dim"] == 1

    def test_dilate_byte_stable_across_runs(self):
        args = (
            "dilate",
            str(FIXTURES / "channel_corner_collapse.json"),
            str(FIXTURES / "channel_identity_2.json"),
            "--horizon", "2", "2",
            "--margin", "1", "1",
        )
        outs = []
        for _ in range(2):
            buf = io.StringIO()
            with redirect_stdout(buf):
                main(list(args))
            outs.append(buf.getvalue())
        assert outs[0] == outs[1]
        assert json.loads(outs[0])["minimality"] == {
            "span_dim": 8, "commutant_dim": 1, "closure_dim": 64, "closure_converged": True,
        }

    def test_dilate_combined_file_with_certificate(self, tmp_path):
        z = json.loads((FIXTURES / "channel_conj_z.json").read_text())
        x = json.loads((FIXTURES / "channel_conj_x.json").read_text())
        combined = tmp_path / "pair.json"
        combined.write_text(json.dumps({
            "theta": z,
            "phi": x,
            "certificate": {"u": [[[-1.0, 0.0]]]},
        }))
        code, rep = run_cli(
            "dilate", str(combined), "--horizon", "2", "2", "--margin", "1", "1"
        )
        assert code == 0
        assert rep["dimK"] == 2
        assert rep["certificate_residuals"]["intertwining"] <= 1e-9

    def test_dilate_combined_file_bad_certificate_exits_two(self, tmp_path):
        z = json.loads((FIXTURES / "channel_conj_z.json").read_text())
        x = json.loads((FIXTURES / "channel_conj_x.json").read_text())
        combined = tmp_path / "pair.json"
        combined.write_text(json.dumps({
            "theta": z,
            "phi": x,
            "certificate": {"u": [[[1.0, 0.0]]]},  # wrong sign
        }))
        code, rep = run_cli(
            "dilate", str(combined), "--horizon", "2", "2", "--margin", "1", "1"
        )
        assert code == 2
        assert "certificate" in rep["error"]


class TestErrors:
    def test_malformed_json_exits_two(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"dim": 2, "kraus": [[[')
        code, rep = run_cli("classify", str(bad))
        assert code == 2
        assert "line" in rep["error"]

    def test_missing_file_exits_two(self):
        code, rep = run_cli("classify", "/nonexistent/channel.json")
        assert code == 2

    def test_strong_commute_reads_each_file_once(self, monkeypatch):
        from cpdilate import cli

        calls = []
        load = cli._load_json
        monkeypatch.setattr(cli, "_load_json", lambda path: calls.append(path) or load(path))
        for pair in (
            ("channel_conj_z.json", "channel_conj_x.json"),
            ("stochastic_p_3x3.json", "stochastic_q_3x3.json"),
        ):
            calls.clear()
            code, rep = run_cli("strong-commute", *(str(FIXTURES / f) for f in pair))
            assert code in (0, 1) and "error" not in rep
            assert len(calls) == 2

    def test_mixed_input_types_exit_two(self, tmp_path):
        ch = write_channel(tmp_path, "c.json", identity_channel(2))
        code, rep = run_cli(
            "strong-commute", ch, str(FIXTURES / "stochastic_p_3x3.json")
        )
        assert code == 2

    def test_minimality_cap_exits_two(self, monkeypatch):
        monkeypatch.setattr(dilation, "MAX_COMMUTANT_UNKNOWNS", 1)
        code, rep = run_cli(
            "dilate",
            str(FIXTURES / "channel_conj_z.json"),
            str(FIXTURES / "channel_conj_x.json"),
            "--horizon", "2", "2",
            "--margin", "1", "1",
        )
        assert code == 2
        assert "over the cap" in rep["error"]

    @pytest.mark.parametrize("dim", [None, True, 1.5, "1"])
    def test_non_integer_dim_exits_two(self, tmp_path, dim):
        bad = tmp_path / "baddim.json"
        bad.write_text(json.dumps({"dim": dim, "kraus": [[[1.0]]]}))
        code, rep = run_cli("classify", str(bad))
        assert code == 2
        assert "'dim'" in rep["error"]

    def test_combined_file_certificate_without_u_exits_two(self, tmp_path):
        z = json.loads((FIXTURES / "channel_conj_z.json").read_text())
        x = json.loads((FIXTURES / "channel_conj_x.json").read_text())
        combined = tmp_path / "pair.json"
        combined.write_text(json.dumps({"theta": z, "phi": x, "certificate": {}}))
        code, rep = run_cli(
            "dilate", str(combined), "--horizon", "2", "2", "--margin", "1", "1"
        )
        assert code == 2
        assert "'u'" in rep["error"]

    @pytest.mark.parametrize(
        "document, message",
        [
            ({"dim": 2, "kraus": 5}, "'kraus'"),
            (5, "JSON object"),
            ({"dim": 1, "kraus": [[[None]]]}, "matrix entry"),
        ],
        ids=["kraus-number", "top-level-number", "null-entry"],
    )
    def test_malformed_channel_shape_exits_two(self, tmp_path, document, message):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(document))
        code, rep = run_cli("classify", str(bad))
        assert code == 2
        assert message in rep["error"]

    def test_combined_file_channel_not_an_object_exits_two(self, tmp_path):
        x = json.loads((FIXTURES / "channel_conj_x.json").read_text())
        combined = tmp_path / "pair.json"
        combined.write_text(json.dumps({"theta": 5, "phi": x}))
        code, rep = run_cli(
            "dilate", str(combined), "--horizon", "2", "2", "--margin", "1", "1"
        )
        assert code == 2
        assert "'theta'" in rep["error"]

    def test_unparsable_env_tolerance_exits_two(self, monkeypatch):
        monkeypatch.setenv("CPDILATE_TOL", "abc")
        with pytest.raises(SystemExit) as exc:
            main(["classify", str(FIXTURES / "channel_identity_2.json")])
        assert exc.value.code == 2

    @pytest.mark.parametrize("value", ["0", "-1e-8"])
    def test_nonpositive_verify_tol_exits_two(self, value):
        with pytest.raises(SystemExit) as exc:
            main([
                "dilate",
                str(FIXTURES / "channel_conj_z.json"),
                str(FIXTURES / "channel_conj_x.json"),
                "--horizon", "2", "2",
                "--margin", "1", "1",
                "--verify-tol", value,
            ])
        assert exc.value.code == 2

    def test_stochastic_bad_rows_exit_two(self, tmp_path):
        bad = tmp_path / "notstochastic.json"
        bad.write_text(json.dumps({"matrix": [[0.5, 0.6], [0.2, 0.8]]}))
        code, rep = run_cli(
            "stochastic", str(bad), str(FIXTURES / "stochastic_p_3x3.json")
        )
        assert code == 2


class TestStochasticFlags:
    def test_check_card(self):
        code, rep = run_cli(
            "stochastic",
            str(FIXTURES / "stochastic_p_3x3.json"),
            str(FIXTURES / "stochastic_q_3x3.json"),
            "--check-card",
        )
        assert code == 1
        assert rep["card_holds"] is False

    def test_semigroup_and_irreducible(self):
        code, rep = run_cli(
            "stochastic",
            str(FIXTURES / "stochastic_p_3x3.json"),
            "--semigroup", "0.5",
            "--irreducible",
        )
        assert code == 0
        assert rep["irreducible"] == [True]
        rows = np.asarray(rep["semigroup"])
        assert np.allclose(rows.sum(axis=1), 1.0, atol=1e-10)

    def test_parser_defaults_are_library_constants(self, monkeypatch):
        monkeypatch.delenv("CPDILATE_TOL", raising=False)
        parser = build_parser()
        args = parser.parse_args(["prodsys", "verify", "a", "b", "--horizon", "1", "1"])
        assert args.tol == DEFAULT_TOL
        assert (args.verify_tol, args.cap) == (DEFAULT_VERIFY_TOL, prodsys.DEFAULT_FIBER_CAP)
        args = parser.parse_args(["dilate", "a", "--horizon", "1", "1", "--margin", "1", "1"])
        assert (args.verify_tol, args.cap) == (DEFAULT_VERIFY_TOL, dilation.DEFAULT_BIG_CAP)

    def test_env_var_tolerance(self, monkeypatch, tmp_path):
        monkeypatch.setenv("CPDILATE_TOL", "1e-3")
        code, rep = run_cli("classify", str(FIXTURES / "channel_identity_2.json"))
        assert rep["tol"] == 1e-3
