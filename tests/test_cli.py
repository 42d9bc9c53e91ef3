import io
import json
import math
import os
import subprocess
import sys
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

import cpdilate
from cpdilate import cli, dilation, prodsys
from cpdilate.chan import (
    KrausFamily,
    channel_from_json,
    channel_to_json,
    identity_channel,
    kraus_to_choi,
    matrix_to_json,
)
from cpdilate.cli import build_parser, main
from cpdilate.linalg import DEFAULT_TOL, DEFAULT_VERIFY_TOL

from conftest import FIXTURES, CommutingFamily, mix_of_unitaries


def _not_json(name):
    raise ValueError(f"{name} is not JSON")


def run_cli(*argv):
    """Exit code and report; a JSON report must parse strictly (no NaN or Infinity)."""
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(list(argv))
    out = buf.getvalue()
    if out.strip().startswith("{"):
        return code, json.loads(out, parse_constant=_not_json)
    return code, out


def write_channel(tmp_path, name, fam):
    path = tmp_path / name
    path.write_text(json.dumps(channel_to_json(fam)))
    return str(path)


ZX = (str(FIXTURES / "channel_conj_z.json"), str(FIXTURES / "channel_conj_x.json"))
PQ = (str(FIXTURES / "stochastic_p_3x3.json"), str(FIXTURES / "stochastic_q_3x3.json"))
GRID = ("--horizon", "2", "2", "--margin", "1", "1")


def dilate_combined(tmp_path, **fields):
    """dilate at GRID on one combined file: the ZX pair as theta and phi,
    with fields added or replacing them."""
    pair = {key: json.loads(Path(path).read_text()) for key, path in zip(("theta", "phi"), ZX)}
    combined = tmp_path / "pair.json"
    combined.write_text(json.dumps({**pair, **fields}))
    return run_cli("dilate", str(combined), *GRID)


class TestStochasticRouting:
    def test_paper_pair_exits_one_with_witness(self):
        code, rep = run_cli("strong-commute", *PQ)
        assert code == 1
        assert rep["route"] == "diagonal"
        assert rep["commute"] is True
        assert rep["commutation_residual"] <= 1e-12
        assert rep["card_holds"] is False
        assert [0, 0, 2, 3] in rep["witnesses"]
        assert rep["strongly_commute"] is False

    def test_golden_report(self):
        code, rep = run_cli("strong-commute", *PQ)
        golden = json.loads((FIXTURES / "golden_strong_commute_3x3.json").read_text())
        assert code == 1
        assert rep == golden

    def test_byte_stable_across_runs(self):
        args = ("strong-commute", *PQ)
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
        code, rep = run_cli("strong-commute", *ZX)
        assert code == 0
        assert rep["u"] == [[[-1.0, 0.0]]]
        assert rep["unitarity_residual"] <= 1e-9
        assert rep["intertwining_residual"] <= 1e-9

    def test_text_format_lists_the_json_report(self):
        path = str(FIXTURES / "channel_identity_2.json")
        code, text = run_cli("--format", "text", "classify", path)
        _, rep = run_cli("classify", path)
        assert code == 0
        lines = text.splitlines()
        assert [line.split(": ", 1)[0] for line in lines] == sorted(rep)
        for line in lines:
            key, value = line.split(": ", 1)
            assert json.loads(value) == rep[key]

    def test_choi_form_channel(self, tmp_path):
        # The file's three Kraus operators have Choi rank 2.
        with open(FIXTURES / "channel_mix3_a.json") as f:
            choi = kraus_to_choi(channel_from_json(json.load(f)))
        path = tmp_path / "choi.json"
        path.write_text(json.dumps({"dim": 2, "choi": matrix_to_json(choi)}))
        with open(path) as f:
            got = channel_from_json(json.load(f))
        assert len(got) == 2
        assert np.abs(kraus_to_choi(got) - choi).max() <= 1e-12
        code, rep = run_cli("classify", str(path))
        assert code == 0 and rep["is_unital"] is True
        path.write_text(json.dumps({"dim": 3, "choi": matrix_to_json(choi)}))
        code, rep = run_cli("classify", str(path))
        assert code == 2
        assert "'dim' does not match the Choi matrix size" in rep["error"]

    def test_strong_commute_non_commuting_pair_exits_one(self, tmp_path):
        hadamard = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
        h = write_channel(tmp_path, "h.json", KrausFamily(2, (hadamard,)))
        s = write_channel(tmp_path, "s.json", KrausFamily(2, (np.diag([1.0, 1.0j]),)))
        code, rep = run_cli("strong-commute", h, s)
        assert code == 1
        assert rep["strongly_commute"] is False
        assert rep["error"]

    def test_prodsys_verify(self):
        code, rep = run_cli("prodsys", "verify", *ZX, "--horizon", "2", "2")
        assert code == 0
        assert rep["passed"]

    def test_dilate_zx(self):
        code, rep = run_cli("dilate", *ZX, *GRID)
        assert code == 0
        assert rep["dimK"] == 2
        assert rep["gram_min_eig"] >= -1e-10
        for value in rep["residuals"].values():
            assert value <= 1e-8
        assert rep["minimality"]["span_dim"] == 2
        assert rep["minimality"]["commutant_dim"] == 1

    @pytest.mark.parametrize("pair, golden", [
        (("channel_corner_collapse.json", "channel_identity_2.json"), "golden_dilate_corner_3x3.json"),
        # Z/X: a flip of -1, which every step and product map passes through.
        (("channel_conj_z.json", "channel_conj_x.json"), "golden_dilate_zx_3x3.json"),
    ], ids=["corner", "zx"])
    def test_golden_dilate_report(self, pair, golden):
        # Every residual of these pairs is exactly 0.0, so the report is the
        # same on every platform, byte for byte; CI diffs the installed entry
        # point against the same files.
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = main([
                "dilate",
                *(str(FIXTURES / name) for name in pair),
                "--horizon", "3", "3",
                "--margin", "1", "1",
            ])
        assert code == 0
        assert buf.getvalue() == (FIXTURES / golden).read_text()

    def test_dilate_byte_stable_across_runs(self):
        args = (
            "dilate",
            str(FIXTURES / "channel_corner_collapse.json"),
            str(FIXTURES / "channel_identity_2.json"),
            *GRID,
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

    def test_dilate_redundant_pair_is_not_minimal(self):
        # Mixes of three commuting unitaries on M_2: Choi rank 2 but Kraus
        # length 3, so K is too large to be minimal and the commutant is not
        # abelian. The fixtures are the seed-0 pair of the test helpers.
        family = CommutingFamily(2, np.random.default_rng(0))
        paths = [str(FIXTURES / f"channel_mix3_{name}.json") for name in "ab"]
        for path in paths:
            with open(path) as f:
                got = channel_from_json(json.load(f))
            assert np.array_equal(np.stack(got.ops), np.stack(mix_of_unitaries(family, 3).ops))
        code, rep = run_cli("dilate", *paths, *GRID)
        assert code == 1
        assert rep["dimK"] == 162
        assert rep["minimality"] == {
            "span_dim": 32, "commutant_dim": 121, "closure_dim": 1764, "closure_converged": True,
        }

    def test_dilate_combined_file_with_certificate(self, tmp_path):
        code, rep = dilate_combined(tmp_path, certificate={"u": [[[-1.0, 0.0]]]})
        assert code == 0
        assert rep["dimK"] == 2
        assert rep["certificate_residuals"]["intertwining"] <= 1e-9

    def test_dilate_goes_through_the_entry_point_once(self, monkeypatch):
        runs = []
        monkeypatch.setattr(cli, "dilate", lambda *a, **k: runs.append(1) or dilation.dilate(*a, **k))
        code, rep = run_cli("dilate", *ZX, *GRID)
        assert code == 0 and rep["passed"]
        assert runs == [1]

    def test_dilate_combined_file_bad_certificate_exits_two(self, tmp_path):
        code, rep = dilate_combined(tmp_path, certificate={"u": [[[1.0, 0.0]]]})  # wrong sign
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
        code, rep = run_cli("strong-commute", ch, PQ[0])
        assert code == 2

    def test_closed_stdout_keeps_exit_code(self, monkeypatch):
        # `cpdilate dilate ... | head -1`: the reader has gone before the
        # report is written. No traceback, and the exit code is still the
        # verdict (0 here), not 1, which would mean a failed verification.
        class ClosedPipe(io.StringIO):
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

        monkeypatch.setattr("sys.stdout", ClosedPipe())
        code = main([
            "dilate",
            str(FIXTURES / "channel_corner_collapse.json"),
            str(FIXTURES / "channel_identity_2.json"),
            "--horizon", "3", "3",
            "--margin", "1", "1",
        ])
        assert code == 0
        monkeypatch.setattr("sys.stdout", ClosedPipe())
        assert main(["classify", str(FIXTURES / "missing.json")]) == 2

    def test_minimality_cap_exits_two(self, monkeypatch):
        monkeypatch.setattr(dilation, "MAX_COMMUTANT_UNKNOWNS", 1)
        code, rep = run_cli("dilate", *ZX, *GRID)
        assert code == 2
        assert "over the cap" in rep["error"]

    def test_big_space_cap_is_not_a_verification_failure(self):
        # A refused size is reported as such, not as an internal failure.
        code, rep = run_cli("dilate", *ZX, "--horizon", "3", "3", "--margin", "1", "1", "--cap", "10")
        assert code == 2
        assert rep == {"error": "big space dimension 32 exceeds cap 10"}

    def test_prodsys_cap_bounds_the_grid(self):
        # One-dimensional fibers: the total over the grid is what is capped.
        code, rep = run_cli("prodsys", "verify", *ZX, "--horizon", "100", "100")
        assert code == 2
        assert rep == {"error": "big space dimension 20402 exceeds cap 4096"}

    @pytest.mark.parametrize("dim", [None, True, 1.5, "1"])
    def test_non_integer_dim_exits_two(self, tmp_path, dim):
        bad = tmp_path / "baddim.json"
        bad.write_text(json.dumps({"dim": dim, "kraus": [[[1.0]]]}))
        code, rep = run_cli("classify", str(bad))
        assert code == 2
        assert "'dim'" in rep["error"]

    def test_combined_file_certificate_without_u_exits_two(self, tmp_path):
        code, rep = dilate_combined(tmp_path, certificate={})
        assert code == 2
        assert "'u'" in rep["error"]

    def test_combined_file_certificate_past_float_range_exits_two(self, tmp_path):
        code, rep = dilate_combined(tmp_path, certificate={"u": [[10**400]]})
        assert code == 2
        assert "too large" in rep["error"]

    @pytest.mark.parametrize(
        "document, message",
        [
            ({"dim": 2, "kraus": 5}, "'kraus'"),
            (5, "JSON object"),
            ({"dim": 1, "kraus": [[[None]]]}, "matrix entry"),
            ({"dim": 1, "kraus": [[[10**400]]]}, "too large"),
        ],
        ids=["kraus-number", "top-level-number", "null-entry", "huge-integer"],
    )
    def test_malformed_channel_shape_exits_two(self, tmp_path, document, message):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(document))
        code, rep = run_cli("classify", str(bad))
        assert code == 2
        assert message in rep["error"]

    def test_combined_file_channel_not_an_object_exits_two(self, tmp_path):
        code, rep = dilate_combined(tmp_path, theta=5)
        assert code == 2
        assert "'theta'" in rep["error"]

    def test_unparsable_env_tolerance_exits_two(self, monkeypatch):
        # The variable goes through the --tol check: a finite value > 0.
        for value in ("abc", "inf", "nan", "0"):
            monkeypatch.setenv("CPDILATE_TOL", value)
            with pytest.raises(SystemExit) as exc:
                main(["classify", str(FIXTURES / "channel_identity_2.json")])
            assert exc.value.code == 2, value

    @pytest.mark.parametrize(
        "option",
        [["--tol", "inf"], ["--tol", "nan"], ["--zero-tol", "-1"], ["--zero-tol", "nan"]],
        ids=["tol-inf", "tol-nan", "zero-tol-negative", "zero-tol-nan"],
    )
    def test_non_finite_or_negative_tolerance_exits_two(self, option):
        # Each of these used to flip a verdict: --tol inf made a non-commuting
        # pair commute, and --zero-tol -1 made the stochastic pair pass.
        with pytest.raises(SystemExit) as exc:
            main([*option, "strong-commute", *PQ])
        assert exc.value.code == 2

    @pytest.mark.parametrize("value", ["0", "-1e-8", "inf", "nan"])
    def test_nonpositive_verify_tol_exits_two(self, value):
        with pytest.raises(SystemExit) as exc:
            main(["dilate", *ZX, *GRID, "--verify-tol", value])
        assert exc.value.code == 2

    def test_stochastic_bad_rows_exit_two(self, tmp_path):
        # Both commands that read stochastic files validate them alike.
        bad_matrices = {
            "rows": [[0.5, 0.6], [0.2, 0.8]],
            "negative": [[1.5, -0.5], [0.0, 1.0]],
            "nan": [[math.nan, 1.0], [0.0, 1.0]],
        }
        for name, matrix in bad_matrices.items():
            bad = tmp_path / f"{name}.json"
            bad.write_text(json.dumps({"matrix": matrix}))
            for command in ("stochastic", "strong-commute"):
                code, rep = run_cli(command, str(bad), PQ[0])
                assert code == 2, (command, name)
                assert str(bad) in rep["error"], (command, name)

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["stochastic", "P", "--check-card"], "--check-card needs exactly two matrices"),
            (["stochastic", "P", "Q", "P"], "needs exactly two matrices"),
            (["stochastic", "WIDE"], "'matrix' must be square"),
            (
                ["dilate", "Z", "X", "Z", "--horizon", "1", "1", "--margin", "1", "1"],
                "two channel files or one combined file",
            ),
        ],
        ids=["check-card-one-matrix", "three-matrices", "non-square", "dilate-three-files"],
    )
    def test_file_counts_and_shapes_exit_two(self, tmp_path, argv, message):
        wide = tmp_path / "wide.json"
        wide.write_text(json.dumps({"matrix": [[0.5, 0.5]]}))
        files = {**dict(zip("PQZX", PQ + ZX)), "WIDE": wide}
        code, rep = run_cli(*(str(files.get(arg, arg)) for arg in argv))
        assert code == 2
        assert message in rep["error"]

    def test_runtime_error_is_an_internal_failure(self, monkeypatch):
        def broken(*args):
            raise RuntimeError("no consistent block structure")

        monkeypatch.setattr(cli, "check_commute", broken)
        code, rep = run_cli("commute", *ZX)
        assert code == 2
        assert rep == {"error": "internal verification failure: no consistent block structure"}

    def test_memory_error_exits_two(self, monkeypatch):
        # Exit 1 means "property false"; an exhausted allocation is not that.
        def exhausted(res):
            raise MemoryError("Unable to allocate 1.00 GiB for an array with shape (8192, 8192)")

        monkeypatch.setattr(dilation, "minimality_check", exhausted)
        code, rep = run_cli("dilate", *ZX, "--horizon", "1", "1", "--margin", "1", "1")
        assert code == 2
        assert rep["error"].startswith("out of memory")
        assert "Unable to allocate 1.00 GiB" in rep["error"]

    @pytest.mark.parametrize("command", ["stochastic", "strong-commute"])
    def test_stochastic_entries_must_be_json_numbers(self, tmp_path, command):
        # The channel decoder's rule: true/false and numeric strings are not
        # numbers (both were read as valid stochastic matrices), and an
        # integer past float range is an input error, not a traceback.
        bad_matrices = {
            "booleans": [[True, False], [False, True]],
            "strings": [["0.5", "0.5"], ["0.5", "0.5"]],
            "huge": [[10**400, 0], [0, 1]],
        }
        for name, matrix in bad_matrices.items():
            bad = tmp_path / f"{name}.json"
            bad.write_text(json.dumps({"matrix": matrix}))
            code, rep = run_cli(command, str(bad), str(bad))
            assert code == 2, name
            assert "array of numbers" in rep["error"], name


class TestStochasticFlags:
    def test_check_card(self):
        code, rep = run_cli("stochastic", *PQ, "--check-card")
        assert code == 1
        assert rep["card_holds"] is False

    def test_semigroup_and_irreducible(self):
        # At t = 800 the factors e^{-t} and e^{tP} under- and overflow.
        for t in ("0.5", "800"):
            code, rep = run_cli("stochastic", PQ[0], "--semigroup", t, "--irreducible")
            assert code == 0
            assert rep["irreducible"] == [True]
            rows = np.asarray(rep["semigroup"])
            assert np.allclose(rows.sum(axis=1), 1.0, atol=1e-10), t

    def test_reducible_matrix_exits_one(self, tmp_path):
        reducible = tmp_path / "identity.json"
        reducible.write_text(json.dumps({"matrix": [[1.0, 0.0], [0.0, 1.0]]}))
        code, rep = run_cli("stochastic", str(reducible), PQ[0], "--irreducible")
        assert code == 1
        assert rep["irreducible"] == [False, True]

    @pytest.mark.parametrize("t", ["nan", "inf", "-1", "1e308"])
    def test_semigroup_out_of_reach_exits_two(self, t):
        code, rep = run_cli("stochastic", PQ[1], "--semigroup", t)
        assert code == 2 and "error" in rep

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


# JSON values for the input-boundary fuzz test. Numbers stay small: a huge
# "dim" or entry is a question of resources, not of shape, and finite floats
# stay far from overflow so that no arithmetic warning is provoked.
_KEYS = st.sampled_from(["dim", "kraus", "choi", "matrix", "theta", "phi", "certificate", "u"])
_NUMBERS = (
    st.integers(-2, 4)
    | st.floats(-1e3, 1e3)
    | st.sampled_from([math.nan, math.inf, -math.inf])
)
_LEAVES = st.none() | st.booleans() | _NUMBERS | st.text(max_size=3)
_JSON = st.recursive(
    _LEAVES,
    lambda kids: st.lists(kids, max_size=4)
    | st.dictionaries(_KEYS | st.text(max_size=2), kids, max_size=4),
    max_leaves=16,
)
# Near-valid channels and the fixture channels, so that the fuzz also reaches
# the pipeline behind the decoder.
_ENTRY = st.floats(-0.5, 0.5) | st.lists(st.floats(-0.5, 0.5), min_size=2, max_size=2) | _LEAVES


def _near_channel(d: int):
    matrix = st.lists(st.lists(_ENTRY, min_size=d, max_size=d), min_size=d, max_size=d)
    return st.fixed_dictionaries(
        {"dim": st.just(d) | _LEAVES},
        optional={"kraus": st.lists(matrix, max_size=2), "choi": matrix, "matrix": _JSON},
    )


_FIXTURE_CHANNELS = [
    json.loads((FIXTURES / f"channel_{name}.json").read_text())
    for name in ("identity_2", "conj_z", "conj_x", "corner_collapse")
]
_CHANNEL = st.integers(1, 3).flatmap(_near_channel) | st.sampled_from(_FIXTURE_CHANNELS)


def _near_stochastic(d: int):
    # Rows normalized to sum 1, or arbitrary entries that mostly do not.
    weights = st.lists(st.floats(0, 1), min_size=d, max_size=d)
    row = weights.map(lambda r: [x / sum(r) for x in r] if sum(r) > 0 else r)
    entry = st.floats(-0.5, 1.5) | st.sampled_from([0.0, 0.5, 1.0]) | _LEAVES
    rows = st.lists(row | st.lists(entry, min_size=d, max_size=d), min_size=d, max_size=d)
    return st.fixed_dictionaries({"matrix": rows})


_FIXTURE_STOCHASTIC = [
    json.loads((FIXTURES / f"stochastic_{name}_3x3.json").read_text()) for name in ("p", "q")
]
_STOCHASTIC = st.integers(1, 3).flatmap(_near_stochastic) | st.sampled_from(_FIXTURE_STOCHASTIC)
_COMBINED = st.fixed_dictionaries(
    {"theta": _CHANNEL, "phi": _CHANNEL}, optional={"certificate": _JSON}
)
# Channels three times as often as arbitrary values: a command needs every file valid.
_DOCUMENT = st.one_of(_CHANNEL, _CHANNEL, _CHANNEL, _JSON, _COMBINED, _STOCHASTIC)
_COMMANDS = {
    "classify": (1, ["classify"]),
    "commute": (2, ["commute"]),
    "strong-commute": (2, ["strong-commute"]),
    "stochastic": (2, ["stochastic"]),
    "prodsys": (2, ["prodsys", "verify"]),
    "dilate": (2, ["dilate"]),
}
_TAILS = {
    "prodsys": st.just(["--horizon", "1", "1"]),
    "dilate": st.just(["--horizon", "1", "1", "--margin", "1", "1"]),
    "stochastic": st.sampled_from(
        [[], ["--check-card"], ["--irreducible"], ["--semigroup", "0.5"], ["--semigroup", "800"]]
    ),
}
# Global tolerance options, valid or not; an invalid one must exit 2 from the
# parser. Half of the draws keep the defaults.
_TOLERANCE = st.tuples(
    st.sampled_from(["--tol", "--zero-tol"]),
    st.sampled_from(["1e-6", "1e-3", "0", "-1", "inf", "nan"]),
)
_TOLERANCES = st.just([]) | st.lists(_TOLERANCE, min_size=1, max_size=2)


def _valid_tolerance(option: str, value: str) -> bool:
    x = float(value)
    return 0 <= x < math.inf and (x > 0 or option == "--zero-tol")


def _failed_verification(report) -> bool:
    """A report of a command whose verification failed: it names the command
    and either a false verdict or the non-commuting pair it stopped at."""
    if not isinstance(report, dict) or "command" not in report:
        return False
    verdicts = [report.get(key) for key in ("passed", "commute", "strongly_commute", "card_holds")]
    return False in verdicts + report.get("irreducible", []) or "error" in report


@settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(
    command=st.sampled_from(sorted(_COMMANDS)),
    documents=st.lists(_DOCUMENT, min_size=2, max_size=2)
    | st.lists(st.sampled_from(_FIXTURE_CHANNELS), min_size=2, max_size=2)
    | st.lists(_STOCHASTIC, min_size=2, max_size=2)
    | st.lists(st.sampled_from(_FIXTURE_STOCHASTIC), min_size=2, max_size=2),
    combined=st.booleans(),
    tolerances=_TOLERANCES,
    data=st.data(),
)
def test_fuzzed_inputs_exit_by_contract(command, documents, combined, tolerances, data):
    """Any JSON document and tolerance: no exception escapes `main`, the exit
    code is 0, 1 or 2, a report is strict JSON, an invalid tolerance exits 2
    from the parser, and exit 1 comes only with the report of a failed
    verification."""
    count, head = _COMMANDS[command]
    if command == "dilate" and combined:
        count = 1  # one combined {"theta", "phi", "certificate"?} file
    tail = data.draw(_TAILS.get(command, st.just([])))
    options = [word for pair in tolerances for word in pair]
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for i, doc in enumerate(documents[:count]):
            path = Path(tmp) / f"input{i}.json"
            path.write_text(json.dumps(doc))
            paths.append(str(path))
        try:
            code, report = run_cli(*options, *head, *paths, *tail)
        except SystemExit as exc:  # the parser refused an option
            code, report = exc.code, None
    event(f"{command} exits {code}")
    if not all(_valid_tolerance(*pair) for pair in tolerances):
        assert code == 2 and report is None
        return
    assert code in (0, 1, 2)
    assert isinstance(report, dict)
    if code == 1:
        assert _failed_verification(report), report
    elif code == 2:
        assert "error" in report and "command" not in report


def test_cli_import_loads_only_stdlib_and_numpy():
    # Every CLI call pays for its imports: `import cpdilate.cli` in a fresh
    # interpreter may load the standard library, numpy and cpdilate, nothing else.
    code = (
        "import sys; before = set(sys.modules); import cpdilate.cli; "
        "print(*sorted(set(sys.modules) - before))"
    )
    src = str(Path(cpdilate.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    out = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, check=True,
    ).stdout.split()
    assert "cpdilate.cli" in out
    tops = {name.partition(".")[0] for name in out}
    assert tops - set(sys.stdlib_module_names) - {"numpy", "cpdilate"} == set()
