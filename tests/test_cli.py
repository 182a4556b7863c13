import json
import sys

import pytest

from superstem.cli import main
from superstem.fileformat import parse

GOOD = 'algebra "h"\neven: x1 x2 z\nodd:\n[x1, x2] = z\n'
LAWLESS = 'algebra "bad"\neven: e1 e2 e3\nodd:\n[e1, e2] = e3\n[e2, e3] = e1\n[e3, e1] = e3\n'
SOLVABLE = 'algebra "s"\neven: e1 e2\nodd:\n[e1, e2] = e2\n'
EMPTY = 'algebra "A(0|0)"\neven:\nodd:\n'


@pytest.fixture
def good_file(tmp_path):
    path = tmp_path / "h.alg"
    path.write_text(GOOD, encoding="utf-8")
    return str(path)


@pytest.fixture
def lawless_file(tmp_path):
    path = tmp_path / "bad.alg"
    path.write_text(LAWLESS, encoding="utf-8")
    return str(path)


def test_validate_good(good_file, capsys):
    assert main(["validate", good_file]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["ok"] is True
    assert data["violations"] == []


def test_validate_lawless_exits_two(lawless_file, capsys):
    assert main(["validate", lawless_file]) == 2
    data = json.loads(capsys.readouterr().out)
    assert data["ok"] is False
    assert data["violations"]


@pytest.mark.parametrize("command", ("validate", "invariants", "derivations", "bounds"))
def test_empty_algebra_exits_zero(tmp_path, command):
    path = tmp_path / "empty.alg"
    path.write_text(EMPTY, encoding="utf-8")
    assert main([command, str(path)]) == 0


def test_missing_file_is_user_error(tmp_path, capsys):
    assert main(["validate", str(tmp_path / "absent.alg")]) == 1
    assert "error" in capsys.readouterr().err


def test_oversized_basis_is_user_error(tmp_path, capsys):
    path = tmp_path / "big.alg"
    path.write_text('algebra "big"\neven: ' + " ".join(f"e{i}" for i in range(129)) + "\nodd:\n",
                    encoding="utf-8")
    assert main(["invariants", str(path)]) == 1
    assert "more than 128 basis names (line 2)" in capsys.readouterr().err


def test_non_utf8_file_is_user_error(tmp_path, capsys):
    path = tmp_path / "latin.alg"
    path.write_bytes(b'algebra "x"\neven: e1\nodd:\n# \xff\n')
    assert main(["invariants", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("form", ("numerator", "denominator"))
def test_coefficient_past_the_digit_limit_is_user_error(tmp_path, capsys, form):
    limit = sys.get_int_max_str_digits()
    if not limit:
        pytest.skip("int string conversion has no digit limit")
    digits = ("9" if form == "numerator" else "7") * (limit + 1)
    coefficient = digits if form == "numerator" else f"1/{digits}"
    path = tmp_path / "long.alg"
    path.write_text(f'algebra "x"\neven: x1 x2 z\nodd:\n[x1, x2] = {coefficient} z\n', encoding="utf-8")
    assert main(["derivations", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert "line 4" in err and digits[:100] not in err


@pytest.mark.parametrize("argv", (
    [],
    ["frobnicate"],
    ["invariants"],
    ["invariants", "a", "b"],
    ["invariants", "f", "--jsn"],
    ["make", "tower", "x"],
    ["make", "tower", "3", "--out"],
    ["classify", "--st", "1,1"],
))
def test_usage_error_is_user_error(argv, capsys):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and "Traceback" not in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("argv", (["--help"], ["invariants", "-h"]))
def test_help_prints_usage(argv, capsys):
    assert main(argv) == 0
    assert capsys.readouterr().out.startswith("superstem validate FILE")


def test_syntax_error_is_user_error(tmp_path, capsys):
    path = tmp_path / "x.alg"
    path.write_text('algebra "x"\neven: e1\nodd:\n[e1, e1] = nope\n', encoding="utf-8")
    assert main(["validate", str(path)]) == 1
    assert "line 4" in capsys.readouterr().err


def test_invariants_text_output(good_file, capsys):
    assert main(["invariants", good_file]) == 0
    out = capsys.readouterr().out
    assert "sdim            (3|0)" in out
    assert "class           2" in out
    assert "st              (0|0)" in out


def test_invariants_json_output(good_file, capsys):
    assert main(["invariants", "--json", good_file]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["sdim"] == [3, 0]
    assert data["nilpotency_class"] == 2
    assert data["st"] == [0, 0]
    assert data["central_series"] == [[1, 0], [3, 0]]


def test_invariants_on_lawless_file_is_user_error(lawless_file, capsys):
    assert main(["invariants", lawless_file]) == 1
    assert "error" in capsys.readouterr().err


def test_invariants_on_solvable_file(tmp_path, capsys):
    path = tmp_path / "s.alg"
    path.write_text(SOLVABLE, encoding="utf-8")
    assert main(["invariants", str(path)]) == 0
    assert "not nilpotent" in capsys.readouterr().out


def test_derivations_output(good_file, capsys):
    assert main(["derivations", good_file]) == 0
    out = capsys.readouterr().out
    assert "sdim Der   (6|0)" in out
    assert "chain ad <= ID* <= ID <= Der: holds" in out


def test_derivations_json(good_file, capsys):
    assert main(["derivations", "--json", good_file]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["sdim_der"] == [6, 0]
    assert data["chain_ok"] is True
    assert data["bound"]["idstar_bound_holds"] is True


def read_json_stream(text):
    decoder = json.JSONDecoder()
    docs, idx = [], 0
    while idx < len(text):
        obj, end = decoder.raw_decode(text, idx)
        docs.append(obj)
        idx = end
        while idx < len(text) and text[idx] in " \n":
            idx += 1
    return docs


def test_bounds(good_file, capsys):
    assert main(["bounds", good_file]) == 0
    docs = read_json_stream(capsys.readouterr().out)
    assert len(docs) == 2
    assert docs[0]["schur_bound_holds"] is True
    assert docs[1]["idstar_bound_holds"] is True


def test_bounds_on_solvable_is_user_error(tmp_path, capsys):
    path = tmp_path / "s.alg"
    path.write_text(SOLVABLE, encoding="utf-8")
    assert main(["bounds", str(path)]) == 1
    assert "not nilpotent" in capsys.readouterr().err


def test_catalog_list(capsys):
    assert main(["catalog", "list"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 32
    assert lines[0].startswith("(4|0)_2")


def test_catalog_show_roundtrips(capsys):
    assert main(["catalog", "show", "(3|2)_13"]) == 0
    text = capsys.readouterr().out
    alg = parse(text)
    assert alg.name == "(3|2)_13"


def test_catalog_show_unknown(capsys):
    assert main(["catalog", "show", "(9|9)_1"]) == 1
    assert "no catalog entry" in capsys.readouterr().err


def test_catalog_show_without_name(capsys):
    assert main(["catalog", "show"]) == 1
    assert "NAME" in capsys.readouterr().err


@pytest.mark.parametrize("argv", (["catalog", "verify", "table1"], ["catalog", "list", "x"]))
def test_catalog_list_and_verify_take_no_name(argv, capsys):
    """Only `show` reads a NAME; a word after `list` or `verify` (say,
    `table1` with its dashes forgotten) is refused, not ignored."""
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: unexpected argument")
    assert captured.out == ""


def test_catalog_verify_table1(capsys):
    assert main(["catalog", "verify", "--table1"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 32
    assert all(line.endswith(": ok") for line in lines)


def test_catalog_verify_classification(capsys):
    assert main(["catalog", "verify", "--classification"]) == 0
    out = capsys.readouterr().out
    assert "0 failed" in out


def test_classify_known_value(capsys):
    assert main(["classify", "--st", "1,1", "--sdim", "3,3"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines == [
        "(2|2)_6 + A(1|1)  sdim (3|3)  st (1|1) verified",
        "(3|2)_13 + A(0|1)  sdim (3|3)  st (1|1) verified",
    ]


def test_classify_empty_value(capsys):
    assert main(["classify", "--st", "0,1", "--sdim", "3,3"]) == 0
    assert "no algebras" in capsys.readouterr().out


def test_classify_bad_pair_arguments(capsys):
    assert main(["classify", "--st", "1", "--sdim", "3,3"]) == 1
    capsys.readouterr()
    assert main(["classify", "--st", "1,1", "--sdim", "x,y"]) == 1
    capsys.readouterr()
    assert main(["classify", "--st=-1,0", "--sdim", "3,3"]) == 1


def test_classify_unsupported_value(capsys):
    assert main(["classify", "--st", "3,3", "--sdim", "7,7"]) == 1
    assert "error" in capsys.readouterr().err


def test_make_tower_roundtrip(tmp_path, capsys):
    out = tmp_path / "t.alg"
    assert main(["make", "tower", "3", "--out", str(out)]) == 0
    alg = parse(out.read_text(encoding="utf-8"))
    assert alg.name == "tower(3)"
    assert alg.sdim.even == 6


def test_make_prints_without_out(capsys):
    assert main(["make", "heisenberg-odd", "2"]) == 0
    text = capsys.readouterr().out
    alg = parse(text)
    assert alg.name == "H_2"


def test_make_rejects_bad_parameters(capsys):
    assert main(["make", "tower", "0"]) == 1
    assert "error" in capsys.readouterr().err


def test_make_refuses_an_algebra_no_file_can_hold(tmp_path, capsys):
    # tower(t) has t + 3 basis vectors, and a file holds at most 128
    big, fits = tmp_path / "big.alg", tmp_path / "fits.alg"
    assert main(["make", "tower", "126", "--out", str(big)]) == 1
    assert capsys.readouterr().err.startswith("error:")
    assert not big.exists()
    assert main(["make", "tower", "125", "--out", str(fits)]) == 0
    assert main(["invariants", str(fits)]) == 0


def test_classify_refuses_an_algebra_too_large_to_build(capsys):
    assert main(["classify", "--st", "0,0", "--sdim", "129,0"]) == 1
    assert capsys.readouterr().err.startswith("error:")
