import json
import warnings

import numpy as np
import pytest

from sinespec import (
    Coefficient,
    DEFAULT_K,
    DEFAULT_N,
    KIND_SECOND_ORDER,
    KIND_SQUARE_PLUS_Q,
    OperatorSpec,
    recover_Q,
    sweep,
)
from sinespec.cli import build_parser, main

COS2 = Coefficient.harmonic_cos(2)
SIN2 = Coefficient.harmonic_sin(2)


def write_coeff(tmp_path, name, u=(0.0,), w=()):
    path = tmp_path / name
    path.write_text(json.dumps({"u": list(u), "w": list(w)}))
    return str(path)


@pytest.fixture
def cos2(tmp_path):
    return write_coeff(tmp_path, "cos2.json", u=(0, 0, 1.0))


@pytest.fixture
def one(tmp_path):
    return write_coeff(tmp_path, "one.json", u=(1.0,))


def test_trace_constant_p_passes(capsys, one):
    code = main(["trace", "--formula", "TRF3", "--p", one, "-N", "64", "-K", "16"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("formula=TRF3 gap=")
    assert out.strip().endswith("PASS")


def test_trace_trs_summary_and_report(capsys, tmp_path, cos2):
    out_path = tmp_path / "trs.csv"
    code = main(
        ["trace", "--formula", "TRS", "--q", cos2, "-N", "128", "-K", "48", "--out", str(out_path)]
    )
    assert code == 0
    line = capsys.readouterr().out.strip()
    assert "formula=TRS" in line and line.endswith("PASS")
    rows = out_path.read_text().strip().splitlines()
    assert rows[0] == "K,S_K,accelerated,rhs,gap"
    assert len(rows) == 49
    # rhs column is -0.5 in every row
    assert all(abs(float(r.split(",")[3]) + 0.5) < 1e-12 for r in rows[1:])


def test_trace_fail_exit_code(capsys, cos2):
    # impossible tolerance forces the FAIL branch and exit 1
    code = main(
        ["trace", "--formula", "TRF3", "--p", cos2, "-N", "128", "-K", "48", "--tol", "1e-12"]
    )
    out = capsys.readouterr().out
    assert code == 1
    assert "formula=TRF3" in out and "FAIL" in out


def test_trace_json_report(tmp_path, one):
    out_path = tmp_path / "rep.json"
    code = main(
        [
            "trace", "--formula", "GLF", "--p", one,
            "-N", "64", "-K", "16", "--out", str(out_path), "--format", "json",
        ]
    )
    assert code == 0
    data = json.loads(out_path.read_text())
    assert data["formula"] == "GLF"
    assert len(data["partial"]) == 16


def test_malformed_json_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"u": [1, ')
    code = main(["trace", "--formula", "GLF", "--p", str(bad), "-N", "64", "-K", "16"])
    err = capsys.readouterr().err
    assert code == 2
    assert "line" in err and "column" in err


def test_bad_field_type_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad2.json"
    bad.write_text('{"u": ["x"]}')
    code = main(["trace", "--formula", "GLF", "--p", str(bad), "-N", "64", "-K", "16"])
    err = capsys.readouterr().err
    assert code == 2
    assert "'u'" in err


def test_precondition_violation_exits_2(capsys, cos2):
    code = main(["trace", "--formula", "TRQ0", "--q", cos2, "-N", "64", "-K", "16"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and "requires q identically zero" in err


def test_trace_trs_reads_a_q_of_any_mean(tmp_path, capsys):
    # the q0 counterterm takes the mean off: TRS verifies the centred q's identity
    q = write_coeff(tmp_path, "cos2-plus.json", u=(0.7, 0, 1.0))
    assert main(["trace", "--formula", "TRS", "--q", q, "-N", "64", "-K", "16"]) == 0
    assert capsys.readouterr().out.strip().endswith("PASS")


def test_n_must_cover_2k(capsys, one):
    code = main(["trace", "--formula", "GLF", "--p", one, "-N", "100", "-K", "64"])
    assert code == 2
    assert "N >= 2K" in capsys.readouterr().err


def test_spectrum_reads_no_truncation(one):
    # spectrum never reads K, so N >= 2K does not apply at the default K = 64
    assert main(["spectrum", "--p", one, "-N", "64"]) == 0


@pytest.mark.parametrize(
    "argv",
    [
        ["trace", "--formula", "GLF", "-N", "64", "-K", "-4"],
        ["spectrum", "-N", "4"],
        ["localize", "-N", "4"],
        ["spectrum", "-N", "8", "--q", "{not-utf8}"],
        ["spectrum", "-N", "8", "--q", "{huge-int}"],
        ["spectrum", "-N", "8", "--out", "{no-dir}/spec.csv"],
        ["spectrum", "-N", "8", "--dump-matrix", "{no-dir}/mat.csv"],
        ["sweep", "--recover", "V", "--grid", "4", "-N", "16", "-K", "8", "--full-spectra",
         "--out", "{sweep-out}"],
        ["trace", "--formula", "GLF", "-N", "32", "-K", "16", "--format", "json"],
        ["spectrum", "-N", "8", "--format", "csv"],
        ["asym", "-N", "32", "-K", "16", "--format", "json"],
        ["sweep", "--recover", "V", "--grid", "4", "-N", "16", "-K", "8", "--format", "csv"],
        ["sweep", "--recover", "q", "--grid", "4", "-N", "16", "-K", "8", "--q", "{cos8}"],
    ],
    ids=["negative-k", "spectrum-small-n", "localize-small-n", "not-utf8", "huge-int",
         "out-unwritable", "dump-matrix-unwritable", "full-spectra-csv",
         "trace-format-without-out", "spectrum-format-without-out",
         "asym-format-without-out", "sweep-format-without-out", "sweep-degree-reaches-grid"],
)
def test_bad_input_exits_2_with_message(tmp_path, capsys, cos2, argv):
    (tmp_path / "not-utf8").write_bytes(b'\xff{"u": [1]}')
    (tmp_path / "huge-int").write_text('{"u": [1' + "0" * 400 + "]}")
    (tmp_path / "cos8").write_text('{"u": [0, 0, 0, 0, 0, 0, 0, 0, 1]}')
    names = ("not-utf8", "huge-int", "no-dir", "sweep-out", "cos8")
    argv = [a.format(**{name: tmp_path / name for name in names}) for a in argv]
    code = main(argv + ["--p", cos2])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    if "--format" in argv and "--out" not in argv:
        # the option would otherwise be dropped without a word
        assert "--format" in err


# every amplitude is finite, but p^2 (P, and the sigma of the factored
# solve) of p = 1e200 cos 2 pi x is not, nor the squared entries of its h
# in the truncation estimate, nor the mean of p = 1e308 sin pi x
BIG_COS = {"u": (0, 0, 1e200)}
BIG_SIN = {"w": (1e308,)}


@pytest.mark.parametrize(
    "argv, amplitudes",
    [
        (["trace", "--formula", "TRF3", "-N", "32", "-K", "8"], BIG_COS),
        (["trace", "--formula", "GLF", "-N", "32", "-K", "8"], BIG_COS),
        (["asym", "-N", "32", "-K", "8"], BIG_COS),
        (["spectrum", "--kind", "H", "-N", "16"], BIG_COS),
        (["spectrum", "--kind", "h", "-N", "16"], BIG_SIN),
        (["trace", "--formula", "GLF"], BIG_SIN),
        (["trace", "--formula", "TRF3", "-N", "32", "-K", "8"], BIG_SIN),
        (["spectrum", "--kind", "h", "-N", "16"], BIG_COS),
    ],
    ids=["trace-TRF3", "trace-GLF", "asym", "spectrum-H", "mean-spectrum-h", "mean-trace-GLF",
         "mean-trace-TRF3", "truncation-spectrum-h"],
)
def test_overflow_of_a_derived_value_exits_1_with_message(tmp_path, capsys, argv, amplitudes):
    big = write_coeff(tmp_path, "big.json", **amplitudes)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(argv + ["--p", big]) == 1
    err = capsys.readouterr().err
    # one line, and no RuntimeWarning of numpy before it
    assert err.startswith("numeric failure: ") and err.count("\n") == 1
    assert [w.message for w in caught] == []
    # an amplitude that is itself not finite is bad input
    (tmp_path / "inf.json").write_text('{"u": [0, 0, Infinity]}')
    assert main(argv + ["--p", str(tmp_path / "inf.json")]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("tau", ["nan", "inf", "-inf"])
@pytest.mark.parametrize(
    "argv",
    [["trace", "--formula", "IPR1", "--q", "SIN2", "-N", "64", "-K", "16"],
     ["spectrum", "--q", "SIN2", "-N", "32"]],
    ids=["trace", "spectrum"],
)
def test_non_finite_tau_exits_2_with_message(tmp_path, capsys, cos2, argv, tau):
    sin2 = write_coeff(tmp_path, "sin2.json", w=(0.0, 1.0))
    argv = [sin2 if a == "SIN2" else a for a in argv]
    assert main(argv + ["--p", cos2, f"--tau={tau}"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "must be finite" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1", "abc"])
@pytest.mark.parametrize(
    "argv",
    [["trace", "--formula", "TRF3", "-N", "32", "-K", "16"],
     ["dispute", "--variant", "DikiiTrfD1", "-N", "32", "-K", "16"]],
    ids=["trace", "dispute"],
)
def test_tol_must_be_finite_and_positive(capsys, cos2, argv, tol):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--p", cos2, f"--tol={tol}"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "tolerance must be a finite positive number" in err
    assert "Traceback" not in err


def test_spectrum_command_writes_csv(tmp_path, capsys, one):
    out_path = tmp_path / "spec.csv"
    code = main(
        ["spectrum", "--kind", "H", "--p", one, "-N", "32", "--out", str(out_path)]
    )
    assert code == 0
    assert "n_trusted=" in capsys.readouterr().out
    rows = out_path.read_text().strip().splitlines()
    assert rows[0] == "n,value,est_abs_err,trusted"
    assert len(rows) == 33


def test_spectrum_dump_matrix(tmp_path, one):
    dump = tmp_path / "mat.csv"
    code = main(
        ["spectrum", "--kind", "h", "--p", one, "-N", "8", "--dump-matrix", str(dump)]
    )
    assert code == 0
    grid = [row.split(",") for row in dump.read_text().strip().splitlines()]
    assert len(grid) == 8 and len(grid[0]) == 8
    a = np.array([[float(v) for v in row] for row in grid])
    assert a[0, 0] == pytest.approx(np.pi**2 - 1.0, rel=1e-12)


def test_dispute_command(tmp_path, capsys, cos2):
    out_path = tmp_path / "disp.json"
    code = main(
        [
            "dispute", "--variant", "DikiiTrfD1", "--p", cos2,
            "-N", "128", "-K", "48", "--out", str(out_path),
        ]
    )
    assert code == 0
    line = capsys.readouterr().out
    assert "verdict=reference" in line
    data = json.loads(out_path.read_text())
    assert data["variant"] == "DikiiTrfD1"
    assert data["disagreement"] == pytest.approx(2 * np.pi**2, abs=1e-10)


@pytest.mark.parametrize("k", ["4", "7", "8"])
def test_sadovnichii_dispute_k_below_two_fit_points_exits_2(tmp_path, capsys, cos2, k):
    p = Coefficient.harmonic_cos(2)
    q = p.derivative(2) + p * p
    sq = write_coeff(tmp_path, "sq.json", u=q.u, w=q.w)
    argv = ["dispute", "--variant", "SadovnichiiTrS", "--p", cos2, "--q", sq, "-N", "64", "-K", k]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "fewer than two points" in err


def test_asym_command(tmp_path, capsys, cos2):
    out_path = tmp_path / "asym.csv"
    code = main(["asym", "--p", cos2, "-N", "128", "-K", "48", "--out", str(out_path)])
    assert code == 0
    assert "fitted_C=" in capsys.readouterr().out
    rows = out_path.read_text().strip().splitlines()
    assert rows[0] == "n,residual,n2_abs_residual"
    assert len(rows) == 49


def test_asym_json_reports_the_signed_derived_constant(tmp_path, capsys, cos2):
    out_path = tmp_path / "asym.json"
    code = main(["asym", "--p", cos2, "-N", "128", "-K", "48", "--out", str(out_path),
                 "--format", "json"])
    assert code == 0
    data = json.loads(out_path.read_text())
    assert data["derived_c"] == pytest.approx(-0.75, abs=1e-6)
    assert data["fitted_c"] < 0.0


def test_localize_command(capsys, cos2):
    code = main(["localize", "--kind", "H", "--p", cos2, "-N", "64"])
    assert code == 0
    out = capsys.readouterr().out
    assert "n0=" in out and "violations=0" in out


def test_sweep_command_csv(tmp_path, capsys, cos2):
    sin2 = write_coeff(tmp_path, "sin2.json", u=(0.0,), w=(0.0, 1.0))
    out_path = tmp_path / "rec.csv"
    code = main(
        [
            "sweep", "--recover", "q", "--p", cos2, "--q", sin2,
            "--grid", "8", "-N", "64", "-K", "24", "--out", str(out_path),
        ]
    )
    assert code == 0
    assert "sweep target=q" in capsys.readouterr().out
    rows = out_path.read_text().strip().splitlines()
    assert rows[0] == "tau,recovered_value,accelerated_sum,n_trusted"
    assert len(rows) == 9


def test_sweep_grid_16_row_count(tmp_path, cos2):
    sin2 = write_coeff(tmp_path, "sin2.json", u=(0.0,), w=(0.0, 1.0))
    out_path = tmp_path / "rec16.csv"
    code = main(
        [
            "sweep", "--recover", "q", "--p", cos2, "--q", sin2,
            "--grid", "16", "-N", "32", "-K", "12", "--out", str(out_path),
        ]
    )
    assert code == 0
    assert len(out_path.read_text().strip().splitlines()) == 17


def test_sweep_recover_V_and_q_write_the_same_sums(tmp_path, cos2):
    # both read one H sweep: only the recovered column differs
    sin2 = write_coeff(tmp_path, "sin2.json", u=(0.0,), w=(0.0, 1.0))
    columns = {}
    for target in ("V", "q"):
        out_path = tmp_path / f"{target}.csv"
        assert main(["sweep", "--recover", target, "--p", cos2, "--q", sin2, "--grid", "4",
                     "-N", "64", "-K", "16", "--out", str(out_path)]) == 0
        rows = [row.split(",") for row in out_path.read_text().strip().splitlines()]
        columns[target] = [row[2] for row in rows]
    assert columns["V"][0] == "accelerated_sum" and len(columns["V"]) == 5
    assert columns["V"] == columns["q"]


def test_sweep_json_with_spectra(tmp_path, cos2):
    out_path = tmp_path / "sweep.json"
    code = main(
        [
            "sweep", "--recover", "V", "--p", cos2,
            "--grid", "4", "-N", "32", "-K", "12",
            "--out", str(out_path), "--format", "json", "--full-spectra",
        ]
    )
    assert code == 0
    data = json.loads(out_path.read_text())
    assert data["target"] == "V"
    assert len(data["taus"]) == 4
    assert len(data["spectra"]) == 4
    assert "mu" in data["spectra"][0]


def test_csv_outputs_byte_identical(tmp_path, cos2):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    for path in (a, b):
        code = main(
            ["trace", "--formula", "TRS", "--q", cos2, "-N", "64", "-K", "24", "--out", str(path)]
        )
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_unknown_command_rejected():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["spectrum", "-K", "8"],
        ["spectrum", "--mode", "none"],
        ["spectrum", "--tol", "1"],
        ["dispute", "--variant", "DikiiTrfD1", "--Q", "f.json"],
        ["dispute", "--variant", "DikiiTrfD1", "--tau", "0.3"],
        ["dispute", "--variant", "DikiiTrfD1", "--mode", "none"],
        ["dispute", "--variant", "DikiiTrfD1", "--format", "json"],
        ["asym", "--mode", "none"],
        ["asym", "--tol", "1"],
        ["localize", "-K", "8"],
        ["localize", "--mode", "none"],
        ["localize", "--format", "csv"],
        ["localize", "--tol", "1"],
        ["sweep", "--recover", "q", "--tau", "0.1"],
        ["sweep", "--recover", "q", "--tol", "1"],
        ["sweep", "--recover", "q", "--mode", "richardson"],
        ["trace", "--center-q", "--formula=TRS"],
    ],
    ids=lambda argv: f"{argv[0]} {argv[-2]}",
)
def test_option_a_command_does_not_read_is_a_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["spectrum", "--kind", "h2q", "--q", "{f}"], "takes no q"),
        (["spectrum", "--kind", "h", "--Q", "{f}"], "takes no Q"),
        (["localize", "--kind", "h2q", "--q", "{f}"], "takes no q"),
        (["trace", "--formula", "GLF", "--q", "{f}", "-K", "16"], "reads no q"),
        (["sweep", "--recover", "q", "--Q", "{f}", "--grid", "4", "-K", "16"], "reads no Q"),
        (["dispute", "--variant", "DikiiTrfD1", "--q", "{f}", "-K", "16"], "read no q"),
        (["asym", "-K", "4"], "fit start 8"),
    ],
    ids=["spectrum-h2q-q", "spectrum-h-Q", "localize-h2q-q", "trace-GLF-q", "sweep-q-Q",
         "dispute-dikii-q", "asym-k-below-fit"],
)
def test_unread_input_exits_2(capsys, cos2, argv, message):
    argv = [cos2 if a == "{f}" else a for a in argv]
    assert main(argv + ["--p", cos2, "-N", "64"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


@pytest.mark.parametrize(
    "argv, keys",
    [
        (["trace", "--formula", "GLF", "--p", "COS2", "-K", "16", "--format", "json"],
         ["formula", "k_used", "partial", "accelerated", "rhs", "gap", "rate_exponent",
          "inputs_digest", "mode", "basis_n", "tau"]),
        (["spectrum", "--kind", "H", "--p", "COS2", "--format", "json"],
         ["kind", "basis_n", "n_trusted", "vals", "est_abs_err"]),
        (["dispute", "--variant", "DikiiTrfD1", "--p", "COS2", "-K", "16"],
         ["variant", "computed_lhs", "variant_rhs", "reference_rhs", "verdict",
          "disagreement", "tolerance"]),
        (["asym", "--p", "COS2", "-K", "16", "--format", "json"],
         ["residuals", "fitted_c", "derived_c", "fit_lo", "fit_hi", "basis_n"]),
        (["localize", "--kind", "H", "--p", "COS2"],
         ["n0", "violations", "disc_count", "horizon"]),
    ],
    ids=["trace", "spectrum", "dispute", "asym", "localize"],
)
def test_json_report_key_order(tmp_path, capsys, cos2, argv, keys):
    out_path = tmp_path / "report.json"
    argv = [cos2 if a == "COS2" else a for a in argv]
    assert main(argv + ["-N", "32", "--out", str(out_path)]) == 0
    text = out_path.read_text()
    assert list(json.loads(text)) == keys
    assert text.endswith("}\n")


@pytest.mark.parametrize(
    "target, template",
    [("Q", OperatorSpec(KIND_SQUARE_PLUS_Q, p=COS2, Q=SIN2)),
     ("p2", OperatorSpec(KIND_SECOND_ORDER, p=COS2))],
)
def test_sweep_recover_Q_and_p2_csv_match_library(tmp_path, cos2, target, template):
    flags = ["--Q", write_coeff(tmp_path, "sin2.json", w=(0.0, 1.0))] if target == "Q" else []
    out_path = tmp_path / "rec.csv"
    code = main(["sweep", "--recover", target, "--p", cos2, *flags,
                 "--grid", "4", "-N", "64", "-K", "16", "--out", str(out_path)])
    assert code == 0
    library = recover_Q(sweep(template, 4, n=64, k=16))
    rows = [row.split(",") for row in out_path.read_text().strip().splitlines()[1:]]
    assert [f"{float(row[1]):.17g}" for row in rows] == [f"{v:.17g}" for v in library[:, 1]]


def test_trace_trq0_gives_trf3_gap(capsys, cos2):
    # TRQ0 is TRF3 at q = 0, in the default fourier mode too
    gaps = []
    for formula in ("TRF3", "TRQ0"):
        assert main(["trace", "--formula", formula, "--p", cos2, "-N", "64", "-K", "16"]) == 0
        gaps.append(capsys.readouterr().out.split()[1])
    assert gaps[0].startswith("gap=") and gaps[1] == gaps[0]


@pytest.mark.parametrize("argv", [
    ["trace", "--formula", "GLF"],
    ["dispute", "--variant", "DikiiTrfD1"],
    ["asym"],
    ["sweep", "--recover", "q"],
    ["spectrum"],
    ["localize"],
])
def test_parser_defaults_are_the_library_sizes(argv):
    args = build_parser().parse_args(argv)
    assert args.n_basis == DEFAULT_N
    assert getattr(args, "k_trunc", DEFAULT_K) == DEFAULT_K
