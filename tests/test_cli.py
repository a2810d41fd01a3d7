"""End-to-end tests of the command line surface."""

import gc
import os
import subprocess
import sys
from fractions import Fraction

import pytest

import skewchar
from skewchar.cli import build_parser, main

# The environment of a fresh interpreter that imports this skewchar.
_SRC_ENV = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(skewchar.__file__)))


@pytest.fixture
def files(tmp_path):
    def write(name, text):
        p = tmp_path / name
        p.write_text(text, encoding="utf-8")
        return str(p)

    return {
        "id2": write("id2.txt", "2\n1 0\n0 1\n"),
        "id3": write("id3.txt", "3\n1 0 0\n0 1 0\n0 0 1\n"),
        "id4": write("id4.txt", "4\n1 0 0 0\n0 1 0 0\n0 0 1 0\n0 0 0 1\n"),
        "zero2": write("zero2.txt", "2\n0 0\n0 0\n"),
        "indef2": write("indef2.txt", "2\n1 0\n0 -1\n"),
        "rank1": write("rank1.txt", "2\n1 2\n2 4\n"),
        "skew3": write("skew3.txt", "3\n1 2 1\n1 3 2\n2 3 3\n"),
        "bad": write("bad.txt", "2\n1 2\n3 4\n"),
        "aniso2": write("aniso2.txt", "2\n1 0\n0 -2\n"),
        "aniso4": write("aniso4.txt",
                        "4\n1 0 0 0\n0 1 0 0\n0 0 -3 0\n0 0 0 -3\n"),
        "aniso3": write("aniso3.txt", "3\n1 0 0\n0 1 0\n0 0 -100160063\n"),
        "unfactored3": write("unfactored3.txt", "3\n1 0 0\n0 1 0\n0 0 -100460273\n"),
    }


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_expand_identity_2(files, capsys):
    code, out, _ = run(capsys, ["expand", files["id2"]])
    assert code == 0
    assert out == "1 + l1_2^2\n"


def test_expand_identity_3(files, capsys):
    code, out, _ = run(capsys, ["expand", files["id3"]])
    assert code == 0
    assert out == "1 + l1_2^2 + l1_3^2 + l2_3^2\n"


def test_expand_zero_matrix(files, capsys):
    code, out, _ = run(capsys, ["expand", files["zero2"]])
    assert code == 0
    assert out == "l1_2^2\n"


def test_expand_parse_error(files, capsys):
    code, out, err = run(capsys, ["expand", files["bad"]])
    assert code == 2
    assert out == ""
    assert "error:" in err


def test_expand_missing_file(capsys):
    code, _, err = run(capsys, ["expand", "/nonexistent/a.txt"])
    assert code == 2
    assert "error:" in err


def test_expand_dimension_cap(files, capsys):
    code, _, err = run(capsys, ["expand", files["id4"], "--max-dim", "3"])
    assert code == 3
    assert "cap" in err


def test_eval(files, capsys):
    code, out, _ = run(capsys, ["eval", files["id3"], files["skew3"]])
    assert code == 0
    assert out == "15\n"


def test_eval_dimension_mismatch(files, capsys):
    code, _, err = run(capsys, ["eval", files["id2"], files["skew3"]])
    assert code == 2
    assert "mismatch" in err


def test_classify_positive_definite(files, capsys):
    code, out, _ = run(capsys, ["classify", files["id4"]])
    assert code == 0
    assert out.splitlines()[0] == "verdict: PositiveDefinite"


def test_classify_indefinite_includes_witness(files, capsys):
    code, out, _ = run(capsys, ["classify", files["indef2"]])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "verdict: Indefinite"
    assert "witness lambda_zero: P = 0" in lines
    assert "witness lambda_plus: P = 3" in lines
    assert "witness lambda_minus: P = -1" in lines


def test_classify_degenerate(files, capsys):
    code, out, _ = run(capsys, ["classify", files["rank1"]])
    assert code == 0
    assert out.splitlines()[0] == "verdict: Degenerate"


def test_witness_indefinite(files, capsys):
    code, out, _ = run(capsys, ["witness", files["indef2"]])
    assert code == 0
    assert "witness lambda_zero: P = 0" in out


def test_witness_on_definite_is_input_error(files, capsys):
    code, _, err = run(capsys, ["witness", files["id2"]])
    assert code == 2
    assert "sign-definite" in err


_ANISOTROPIC_ERR = (
    "error: no rational skew matrix with det(A - L) = 0 exists: the form is "
    "anisotropic at p = 2\n")
_EXHAUSTED_ERR = (
    "error: no rational skew matrix with det(A - L) = 0 found within the search "
    "budget, and none was proved not to exist\n")


@pytest.mark.parametrize("name, expected, code, err", [
    pytest.param(
        "aniso2",
        "verdict: Indefinite\n"
        "signature: 1 1 0\n"
        "predicted_sign: NotSignDefinite\n"
        "witness lambda_zero: none (anisotropic at p = 2)\n"
        "witness lambda_plus: P = 2\n"
        "2\n1 2 2\n"
        "witness lambda_minus: P = -2\n"
        "2\n",
        4, _ANISOTROPIC_ERR,
        id="diag(1,-2)"),
    pytest.param(
        "aniso4",
        "verdict: Indefinite\n"
        "signature: 2 2 0\n"
        "predicted_sign: NotSignDefinite\n"
        "witness lambda_zero: none (anisotropic at p = 2)\n"
        "witness lambda_plus: P = 9\n"
        "4\n"
        "witness lambda_minus: P = -3\n"
        "4\n2 3 2\n",
        4, _ANISOTROPIC_ERR,
        id="diag(1,1,-3,-3)"),
    pytest.param(
        "aniso3",
        "verdict: Indefinite\n"
        "signature: 2 1 0\n"
        "predicted_sign: NotSignDefinite\n"
        "witness lambda_zero: none (anisotropic at p = 2)\n"
        "witness lambda_plus: P = 1\n"
        "3\n2 3 10008\n"
        "witness lambda_minus: P = -100160063\n"
        "3\n",
        4, _ANISOTROPIC_ERR,
        id="diag(1,1,-10007*10009)"),
    pytest.param(
        "unfactored3",
        "verdict: Indefinite\n"
        "signature: 2 1 0\n"
        "predicted_sign: NotSignDefinite\n"
        "witness lambda_zero: none (search budget exhausted)\n"
        "witness lambda_plus: P = 256\n"
        "3\n2 3 10023\n"
        "witness lambda_minus: P = -100460273\n"
        "3\n",
        1, _EXHAUSTED_ERR,
        id="diag(1,1,-10007*10039)"),
])
def test_exhausted_zero_search(files, capsys, name, expected, code, err):
    # classify still prints the exact verdict and strict-sign witnesses
    assert run(capsys, ["classify", files[name]]) == (0, expected, "")
    # witness refuses: nothing on stdout, one error line.  Exit 4 when the
    # form is proved anisotropic, exit 1 when only the budget ran out.
    # Neither 10007 * 10009 nor 10007 * 10039 has a prime factor below the
    # trial division bound; the first is anisotropic at 2 all the same, and
    # the second is isotropic at 2 and every smaller prime, anisotropic only
    # at 10007 and 10039, which trial division does not reach.
    assert run(capsys, ["witness", files[name]]) == (code, "", err)


def test_help_lists_exit_codes(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    out = " ".join(capsys.readouterr().out.split())
    assert ("exit codes: 0 success; 1 witness found no rational zero within "
            "its search budget; 2 input error; 3 dimension cap exceeded; "
            "4 witness proved that no rational zero exists (the form is "
            "anisotropic at a prime p).") in out
    assert "selftest" not in out


def test_certify(files, capsys):
    code, out, _ = run(capsys, ["certify", files["id2"]])
    assert code == 0
    assert out == (
        "n: 2\n"
        "scale: 1\n"
        "weight: 1 ; sqroot: 1\n"
        "weight: 1 ; sqroot: l1_2\n"
    )


# expand on a form whose elimination starts with a fold (zero diagonal), one
# that starts with a swap, and an indefinite one with negative pivots and 1/2
# denominators in S; certify on rational positive definite forms at n = 3, 4.
# Each entry is (command, form, stdout); all were captured through cli.main
# before lagrange_diagonalize returned its diagonal as a tuple.
_DIAGONALIZATION_CLI_GOLDENS = {
    "expand_fold_n3": (
        "expand", "3\n0 1 2\n1 0 3\n2 3 0\n",
        "12 - 6*l1_2*l1_3 + 4*l1_2*l2_3 - 2*l1_3*l2_3\n"),
    "expand_swap_n3": (
        "expand", "3\n0 1 0\n1 2 0\n0 0 1\n",
        "-1 + l1_2^2 + 2*l1_3^2 - 2*l1_3*l2_3\n"),
    "expand_negative_pivot_n4": (
        "expand", "4\n-2 1 3 0\n1 1/2 0 1\n3 0 1 -1/2\n0 1 -1/2 -1\n",
        "21 - 5/4*l1_2^2 - l1_2*l1_3 - 2*l1_2*l1_4 - 6*l1_2*l2_3 + 3*l1_2*l2_4"
        " + 6*l1_2*l3_4 - 3/2*l1_3^2 + 1/2*l1_3*l1_4 + 2*l1_3*l2_3 - l1_3*l2_4"
        " - 2*l1_3*l3_4 + 1/2*l1_4^2 - 7*l1_4*l2_3 - 2*l1_4*l2_4 - 3*l1_4*l3_4"
        " + 2*l2_3^2 - 2*l2_3*l2_4 - 4*l2_3*l3_4 - 11*l2_4^2 + 6*l2_4*l3_4"
        " - 2*l3_4^2 + l1_2^2*l3_4^2 - 2*l1_2*l1_3*l2_4*l3_4"
        " + 2*l1_2*l1_4*l2_3*l3_4 + l1_3^2*l2_4^2 - 2*l1_3*l1_4*l2_3*l2_4"
        " + l1_4^2*l2_3^2\n"),
    "certify_n3": (
        "certify", "3\n2 1/2 0\n1/2 3/2 1/3\n0 1/3 1\n",
        "n: 3\n"
        "scale: 1\n"
        "weight: 91/36 ; sqroot: 1\n"
        "weight: 91/99 ; sqroot: l1_2\n"
        "weight: 11/8 ; sqroot: -8/33*l1_2 + l1_3\n"
        "weight: 2 ; sqroot: -1/4*l1_3 + l2_3\n"),
    "certify_n4": (
        "certify", "4\n3 1 0 1/2\n1 2 1/2 0\n0 1/2 5/2 1\n1/2 0 1 4/3\n",
        "n: 4\n"
        "scale: 1\n"
        "weight: 431/48 ; sqroot: 1\n"
        "weight: 431/240 ; sqroot: l1_2\n"
        "weight: 2155/1692 ; sqroot: -3/10*l1_2 + l1_3\n"
        "weight: 47/12 ; sqroot: 11/47*l1_2 - 21/47*l1_3 + l1_4\n"
        "weight: 431/188 ; sqroot: -1/3*l1_3 + l2_3\n"
        "weight: 141/20 ; sqroot: 1/6*l1_2 + 7/47*l1_3 - 1/3*l1_4 - 21/47*l2_3 + l2_4\n"
        "weight: 5 ; sqroot: -1/20*l1_2 + 1/5*l1_3 + 1/10*l1_4 - 1/10*l2_3"
        " - 3/10*l2_4 + l3_4\n"
        "weight: 1 ; sqroot: l1_2*l3_4 - l1_3*l2_4 + l1_4*l2_3\n"),
}


@pytest.mark.parametrize("name", list(_DIAGONALIZATION_CLI_GOLDENS))
def test_expand_and_certify_goldens(tmp_path, capsys, name):
    command, form, expected = _DIAGONALIZATION_CLI_GOLDENS[name]
    path = tmp_path / "form.txt"
    path.write_text(form, encoding="utf-8")
    assert run(capsys, [command, str(path)]) == (0, expected, "")


def test_certify_rejects_indefinite(files, capsys):
    code, _, err = run(capsys, ["certify", files["indef2"]])
    assert code == 2
    assert "not positive definite" in err


def test_probe_header_and_tallies(files, capsys):
    code, out, _ = run(capsys, ["probe", files["id2"],
                                "--trials", "40", "--seed", "7"])
    assert code == 0
    assert out == (
        "command: probe\n"
        "seed: 7\n"
        "trials: 40\n"
        "bound: 10\n"
        "positives: 40\n"
        "negatives: 0\n"
        "zeros: 0\n"
    )


def test_probe_refuses_a_negative_seed(files, capsys):
    code, out, err = run(capsys, ["probe", files["id2"], "--seed", "-20", "--trials", "40"])
    assert (code, out, err) == (2, "", "error: seed must be at least 0\n")


def test_probe_help_gives_defaults_and_cost(capsys):
    with pytest.raises(SystemExit):
        main(["probe", "--help"])
    out = " ".join(capsys.readouterr().out.split())
    for text in ("--trials N number of random skew matrices L (default 1000)",
                 "each trial costs one exact n x n determinant",
                 "(default 0; K must be at least 0)", "1 <= q <= B (default 10)"):
        assert text in out


def _token(num, den):
    # Spelled as written, not reduced: 2/4 stays 2/4 and 0/3 stays 0/3.
    return str(num) if den == 1 else f"{num}/{den}"


def _form_text(n, entry):
    """Symmetric file text with entry(i, j), i <= j 1-based, as (num, den)."""
    rows = (" ".join(_token(*entry(min(i, j), max(i, j))) for j in range(1, n + 1))
            for i in range(1, n + 1))
    return f"{n}\n" + "\n".join(rows) + "\n"


def _eval_skew_text():
    lines = [f"{i} {j} {_token(num, den if num else 1)}"
             for i in range(1, 31) for j in range(i + 1, 31)
             for num, den in [((i * i + 2 * j) % 9 - 4, (i + 2 * j) % 6 + 1)]]
    return "30\n" + "\n".join(lines) + "\n"


def _degenerate_form_text():
    """n=24: row and column 24 are the sums of rows and columns 1 and 2."""
    m = [[Fraction((i + 2 * j + i * j) % 11 - 5, (i + j) % 3 + 1) for j in range(23)]
         for i in range(23)]
    m = [[m[min(i, j)][max(i, j)] for j in range(23)] for i in range(23)]
    last = [m[0][j] + m[1][j] for j in range(23)]
    rows = [row + [last[i]] for i, row in enumerate(m)]
    rows.append(last + [last[0] + last[1]])
    return "24\n" + "\n".join(" ".join(map(str, r)) for r in rows) + "\n"


# Inputs of the dense benchmark's kinds, with the exact stdout of the parent
# of the change that stored matrices in the determinant kernel's form.
_DENSE_GOLDENS = {
    "eval_n30": (
        "eval", [_form_text(30, lambda i, j: ((3 * i + 5 * j + i * j) % 13 - 6,
                                              (i + j) % 4 + 1)),
                 _eval_skew_text()], [],
        "-10040445885589392088631205464250361618777615074433525202464577715204721787"
        "/1768591357765866863198208000000000000000000000000\n"),
    "classify_definite_n18": (
        "classify", [_form_text(18, lambda i, j: (-60 - i, 1 + i % 2) if i == j
                                else ((i + j) % 5 - 2, (i * j) % 3 + 2))], [],
        "verdict: NegativeDefinite\nsignature: 0 18 0\npredicted_sign: AlwaysPositive\n"),
    "classify_degenerate_n24": (
        "classify", [_degenerate_form_text()], [],
        "verdict: Degenerate\nsignature: 12 11 1\npredicted_sign: NotSignDefinite\n"
        "witness lambda_zero: P = 0\n24\n"),
    "probe_n12": (
        "probe", [_form_text(12, lambda i, j: ((2 * i + 3 * j) % 7 - 3, (i * j) % 5 + 1))],
        ["--trials", "40", "--bound", "10"],
        "command: probe\nseed: 0\ntrials: 40\nbound: 10\n"
        "positives: 27\nnegatives: 13\nzeros: 0\n"),
}


def test_dense_goldens_use_the_spellings_they_cover():
    form, skew = _DENSE_GOLDENS["eval_n30"][1]
    assert "2/4" in form and " 2/4\n" in skew and " 0\n" in skew


@pytest.mark.parametrize("name", sorted(_DENSE_GOLDENS))
def test_dense_golden(tmp_path, capsys, name):
    command, texts, args, expected = _DENSE_GOLDENS[name]
    paths = []
    for k, text in enumerate(texts):
        path = tmp_path / f"input{k}.txt"
        path.write_text(text, encoding="utf-8")
        paths.append(str(path))
    assert run(capsys, [command, *paths, *args]) == (0, expected, "")


# witness and classify on one form per way a witness is found or refused: a
# pair of the diagonalization (planted), a coordinate permutation, a zero
# a_22, a local proof of anisotropy (exit 4 from witness) at n = 2, 3 and 4,
# integer enumeration, a scrambled hard form, and eliminations with negative
# pivots and 1/2 denominators in S.  Each entry is (form, classify stdout,
# witness stderr or None); witness prints the classify text when it exits 0.
# All were captured through cli.main before S and the witnesses were built
# in integers.
_WITNESS_CLI_GOLDENS = {
    "planted_n4": (
        "4\n2 2 2 0\n2 1/2 1/2 0\n2 1/2 -7/2 0\n0 0 0 4\n",
        "verdict: Indefinite\n"
        "signature: 2 2 0\n"
        "predicted_sign: NotSignDefinite\n"
        "witness lambda_zero: P = 0\n"
        "4\n"
        "2 3 -4/3\n"
        "2 4 4/3\n"
        "3 4 -8/3\n"
        "witness lambda_plus: P = 48\n"
        "4\n"
        "witness lambda_minus: P = -24\n"
        "4\n"
        "2 4 -3\n"
        "3 4 -3\n",
        None),
    "permutation_n4": (
        "4\n2 1 0 1\n1 -3 2 0\n0 2 5 1\n1 0 1 -4\n",
        "verdict: Indefinite\n"
        "signature: 2 2 0\n"
        "predicted_sign: NotSignDefinite\n"
        "witness lambda_zero: P = 0\n"
        "4\n"
        "1 2 -1/2\n"
        "1 3 -1/2\n"
        "1 4 3\n"
        "2 4 1/2\n"
        "3 4 1/2\n"
        "witness lambda_plus: P = 194\n"
        "4\n"
        "witness lambda_minus: P = -1358/43\n"
        "4\n"
        "2 3 -5\n"
        "2 4 -25/43\n"
        "3 4 45/43\n",
        None),
    "zero_a22_n3": (
        "3\n2 1 -1\n1 0 3\n-1 3 -1/2\n",
        "verdict: Indefinite\n"
        "signature: 2 1 0\n"
        "predicted_sign: NotSignDefinite\n"
        "witness lambda_zero: P = 0\n"
        "3\n"
        "1 2 1\n"
        "2 3 -3\n"
        "witness lambda_plus: P = 17/2\n"
        "3\n"
        "2 3 -4\n"
        "witness lambda_minus: P = -47/2\n"
        "3\n",
        None),
    "aniso_n2": (
        "2\n1 1\n1 -1\n",
        "verdict: Indefinite\n"
        "signature: 1 1 0\n"
        "predicted_sign: NotSignDefinite\n"
        "witness lambda_zero: none (anisotropic at p = 2)\n"
        "witness lambda_plus: P = 2\n"
        "2\n"
        "1 2 2\n"
        "witness lambda_minus: P = -2\n"
        "2\n",
        "error: no rational skew matrix with det(A - L) = 0 exists: the form is anisotropic at p = 2\n"),
    "aniso_n3": (
        "3\n1 1 0\n1 2 1\n0 1 -2\n",
        "verdict: Indefinite\n"
        "signature: 2 1 0\n"
        "predicted_sign: NotSignDefinite\n"
        "witness lambda_zero: none (anisotropic at p = 2)\n"
        "witness lambda_plus: P = 1\n"
        "3\n"
        "2 3 2\n"
        "witness lambda_minus: P = -3\n"
        "3\n",
        "error: no rational skew matrix with det(A - L) = 0 exists: the form is anisotropic at p = 2\n"),
    "aniso_n4": (
        "4\n1 0 1 0\n0 1 0 1\n1 0 -2 0\n0 1 0 -2\n",
        "verdict: Indefinite\n"
        "signature: 2 2 0\n"
        "predicted_sign: NotSignDefinite\n"
        "witness lambda_zero: none (anisotropic at p = 2)\n"
        "witness lambda_plus: P = 9\n"
        "4\n"
        "witness lambda_minus: P = -3\n"
        "4\n"
        "2 3 2\n"
        "3 4 -2\n",
        "error: no rational skew matrix with det(A - L) = 0 exists: the form is anisotropic at p = 2\n"),
    "enumeration_n3": (
        "3\n1/2 0 0\n0 1 0\n0 0 -3/2\n",
        "verdict: Indefinite\n"
        "signature: 2 1 0\n"
        "predicted_sign: NotSignDefinite\n"
        "witness lambda_zero: P = 0\n"
        "3\n"
        "1 2 1/6\n"
        "1 3 -2/3\n"
        "2 3 5/6\n"
        "witness lambda_plus: P = 5/4\n"
        "3\n"
        "2 3 2\n"
        "witness lambda_minus: P = -3/4\n"
        "3\n",
        None),
    "enumeration_n4": (
        "4\n1/3 0 0 0\n0 2/3 0 0\n0 0 1 0\n0 0 0 -2\n",
        "verdict: Indefinite\n"
        "signature: 3 1 0\n"
        "predicted_sign: NotSignDefinite\n"
        "witness lambda_zero: P = 0\n"
        "4\n"
        "1 2 1/12\n"
        "1 3 1/6\n"
        "1 4 -7/12\n"
        "2 3 -1/12\n"
        "2 4 2/3\n"
        "3 4 3/4\n"
        "witness lambda_plus: P = 4/9\n"
        "4\n"
        "3 4 2\n"
        "witness lambda_minus: P = -4/9\n"
        "4\n",
        None),
    "hard_scrambled_n5": (
        "5\n2 0 2 0 2\n0 3 0 0 0\n2 0 3 0 3\n0 0 0 -11 0\n2 0 3 0 8\n",
        "verdict: Indefinite\n"
        "signature: 4 1 0\n"
        "predicted_sign: NotSignDefinite\n"
        "witness lambda_zero: P = 0\n"
        "5\n"
        "1 2 -2/7\n"
        "1 3 4/7\n"
        "1 4 2/7\n"
        "1 5 -2/7\n"
        "2 3 -3/7\n"
        "2 4 -2\n"
        "2 5 1/7\n"
        "3 4 25/7\n"
        "3 5 1/7\n"
        "4 5 13/7\n"
        "witness lambda_plus: P = 54\n"
        "5\n"
        "4 5 -8\n"
        "witness lambda_minus: P = -330\n"
        "5\n",
        None),
    "negative_pivots_n3": (
        "3\n-2 1 3\n1 1 0\n3 0 1\n",
        "verdict: Indefinite\n"
        "signature: 2 1 0\n"
        "predicted_sign: NotSignDefinite\n"
        "witness lambda_zero: none (anisotropic at p = 2)\n"
        "witness lambda_plus: P = 3/2\n"
        "3\n"
        "1 3 -3\n"
        "2 3 3/2\n"
        "witness lambda_minus: P = -12\n"
        "3\n",
        "error: no rational skew matrix with det(A - L) = 0 exists: the form is anisotropic at p = 2\n"),
    "negative_pivots_n4": (
        "4\n-2 1 1 3\n1 -1/2 0 1\n1 0 3 -1\n3 1 -1 1\n",
        "verdict: Indefinite\n"
        "signature: 2 2 0\n"
        "predicted_sign: NotSignDefinite\n"
        "witness lambda_zero: P = 0\n"
        "4\n"
        "1 3 -1/5\n"
        "1 4 -1\n"
        "2 3 -2/5\n"
        "2 4 -2\n"
        "witness lambda_plus: P = 44\n"
        "4\n"
        "witness lambda_minus: P = -5\n"
        "4\n"
        "1 4 -14\n"
        "2 4 7\n"
        "3 4 7\n",
        None),
}


@pytest.mark.parametrize("name", list(_WITNESS_CLI_GOLDENS))
def test_witness_and_classify_goldens(tmp_path, capsys, name):
    form, report, refusal = _WITNESS_CLI_GOLDENS[name]
    path = tmp_path / "form.txt"
    path.write_text(form, encoding="utf-8")
    assert run(capsys, ["classify", str(path)]) == (0, report, "")
    expected = (0, report, "") if refusal is None else (4, "", refusal)
    assert run(capsys, ["witness", str(path)]) == expected


def test_byte_identical_reruns(files, capsys):
    for argv in (
        ["expand", files["id3"]],
        ["classify", files["indef2"]],
        ["probe", files["id2"], "--trials", "25", "--seed", "3"],
        ["certify", files["id2"]],
    ):
        first = run(capsys, argv)
        second = run(capsys, argv)
        assert first == second


def test_main_leaves_no_cyclic_garbage(files, capsys):
    assert build_parser() is build_parser()  # built once per process
    calls = [
        ["expand", files["id3"]],
        ["eval", files["id3"], files["skew3"]],
        ["classify", files["indef2"]],
        ["witness", files["indef2"]],
        ["certify", files["id2"]],
        ["probe", files["id2"], "--trials", "5"],
    ]
    for argv in calls:
        assert run(capsys, argv)[0] == 0  # warm: first call may build caches
    for argv in calls:
        gc.collect()
        assert run(capsys, argv)[0] == 0
        assert gc.collect() == 0, argv[0]


_HUGE = "7" * 5000  # past the default int string-length limit of 4300 digits


# The token is echoed cut to its first 60 characters, with its length.
@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="interpreter has no int string-length limit")
@pytest.mark.parametrize("argv_text", [
    ("classify", f"1\n{_HUGE}\n",
     f"bad rational literal '{'7' * 60}'... (5000 characters)"),
    ("classify", f"1\n1/{_HUGE}\n",
     f"bad rational literal '1/{'7' * 58}'... (5002 characters)"),
    ("classify", f"{_HUGE}\n1\n",
     f"bad dimension line '{'7' * 60}'... (5000 characters)"),
])
def test_huge_literal_is_input_error(tmp_path, capsys, argv_text):
    cmd, text, message = argv_text
    path = tmp_path / "huge.txt"
    path.write_text(text, encoding="utf-8")
    code, out, err = run(capsys, [cmd, str(path)])
    assert (code, out, err) == (2, "", f"error: {path}: {message}\n")


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="interpreter has no int string-length limit")
def test_huge_skew_value_is_input_error(files, tmp_path, capsys):
    path = tmp_path / "huge_skew.txt"
    path.write_text(f"3\n1 2 -{_HUGE}\n", encoding="utf-8")
    code, out, err = run(capsys, ["eval", files["id3"], str(path)])
    assert (code, out) == (2, "")
    assert err == (f"error: {path}: bad rational literal '-{'7' * 59}'... "
                   "(5001 characters)\n")


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="interpreter has no int string-length limit")
def test_huge_skew_index_is_input_error(files, tmp_path, capsys):
    path = tmp_path / "huge_skew.txt"
    path.write_text(f"3\n1 {_HUGE} 5\n", encoding="utf-8")
    code, out, err = run(capsys, ["eval", files["id3"], str(path)])
    assert (code, out) == (2, "")
    assert err == f"error: {path}: bad indices in '1 {'7' * 58}'... (5004 characters)\n"



# A dimension of 60 digits or fewer is echoed whole; a longer one is cut to
# its first 60 digits and its length, so stderr stays short.
@pytest.mark.parametrize("digits", [60, 4000])
@pytest.mark.parametrize("reader", ["symmetric", "skew"])
def test_dimension_echo_is_bounded(files, tmp_path, capsys, reader, digits):
    dim = "7" * digits
    shown = dim if digits <= 60 else f"{'7' * 60}... ({digits} characters)"
    path = tmp_path / f"{reader}.txt"
    if reader == "symmetric":
        path.write_text(f"{dim}\n1\n", encoding="utf-8")
        argv, message = ["classify", str(path)], f"expected {shown} rows, found 1"
    else:
        path.write_text(f"{dim}\n2 1 5\n", encoding="utf-8")
        argv = ["eval", files["id2"], str(path)]
        message = f"indices must satisfy 1 <= i < j <= {shown}: '2 1 5'"
    code, out, err = run(capsys, argv)
    assert (code, out, err) == (2, "", f"error: {path}: {message}\n")
    assert len(err) <= len(str(path)) + 150


@pytest.mark.parametrize("data, reason", [
    ("2\n1 0\n0 \u0663\n".encode(), "non-ASCII character U+0663 on line "),
    ("2\n1 0\n0 1/1\u0662\n".encode(), "non-ASCII character U+0662 on line "),
    ("\uff12\n1 0\n0 1\n".encode(), "non-ASCII character U+FF12 on line 1"),
    ("2\u20281 0\n0 1\n".encode(), "non-ASCII character U+2028 on line 1"),
    (b"2\n1 0\n0 \xff\n", "'utf-8' codec can't decode byte 0xff"),
], ids=["arabic_indic_digit", "digit_in_denominator", "fullwidth_dimension",
        "line_separator", "not_utf8"])
def test_non_ascii_matrix_file_is_input_error(files, tmp_path, capsys, data, reason):
    path = tmp_path / "form.txt"
    path.write_bytes(data)
    skew = tmp_path / "skew.txt"  # the same bytes, the last token a skew value
    skew.write_bytes(data.replace(b"2\n1 0\n0 ", b"2\n1 2 "))
    for argv, bad in ((["classify", str(path)], path),
                      (["eval", files["id2"], str(skew)], skew)):
        code, out, err = run(capsys, argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(bad) in err and reason in err


def test_selftest_is_a_usage_error(capsys):
    # The subcommand is gone: argparse refuses it, in process and through
    # python -m, with exit 2 and its usage text.
    with pytest.raises(SystemExit) as exc:
        main(["selftest"])
    assert exc.value.code == 2
    assert "invalid choice: 'selftest'" in capsys.readouterr().err
    done = subprocess.run([sys.executable, "-m", "skewchar", "selftest"], env=_SRC_ENV,
                          capture_output=True, text=True)
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr.startswith("usage: skewchar ") and "invalid choice" in done.stderr


# What `import skewchar.cli` adds to a fresh interpreter, among the modules a
# CLI start must not pay for: dataclasses, with inspect, ast, dis, ...
_CLI_IMPORTS = """
import sys
before = set(sys.modules)
import skewchar.cli
print("dataclasses" in set(sys.modules) - before)
"""


def test_cli_start_imports_no_dataclasses():
    out = subprocess.run([sys.executable, "-c", _CLI_IMPORTS], env=_SRC_ENV,
                         capture_output=True, text=True, check=True).stdout
    assert out == "False\n"
