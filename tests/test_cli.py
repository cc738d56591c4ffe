import itertools
import json
import random
import re
import shlex
import time
from pathlib import Path

import pytest

from orbitcal import cli
from orbitcal.torusoracle import _nonnegative_solution

# inputs of the Kazarnovskii formula for binary quadratic forms
SL2_REDUCTIVE = {
    "dim_g": 3,
    "weyl_order": 2,
    "exponents": [1],
    "kernel_order": 2,
    "coroots": [["1"]],
    "polytope": [[["-2"], ["0"]], [["0"], ["2"]]],
}


def run(args, capsys):
    code = cli.main(args)
    out, err = capsys.readouterr()
    return code, out, err


@pytest.fixture
def torus12(tmp_path, capsys):
    path = tmp_path / "torus12.json"
    code, _, _ = run(["gen", "torus", "--weights", "1;2", "--out", str(path)], capsys)
    assert code == 0
    return str(path)


def test_gen_sl2_entry(capsys):
    code, out, _ = run(["gen", "sl2", "--h", "2"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["rho"][1][1] == "1 + 2*x1^-2*x2*x3"
    assert payload["n"] == 3
    assert payload["degree_bound"] == 8


def test_gen_label(capsys):
    code, out, _ = run(["gen", "sl2", "--h", "2", "--label", "foo"], capsys)
    assert code == 0
    assert json.loads(out)["label"] == "foo"


def test_gen_torus(capsys):
    code, out, _ = run(["gen", "torus", "--weights", "1;2"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["rho"][0][0] == "x1"
    assert payload["rho"][1][1] == "x1^2"
    assert payload["rho"][0][1] == "0"


def test_gen_rejects_bad_h(capsys):
    code, _, err = run(["gen", "sl2", "--h", "0"], capsys)
    assert code == 2
    assert "h must be >= 1" in err


def test_decide_in_closure(torus12, capsys):
    code, out, _ = run(
        ["decide", "--rep", torus12, "--a", "0,0", "--b", "1,1", "--conify",
         "--degree-bound", "2"],
        capsys,
    )
    assert code == 0
    assert json.loads(out)["verdict"] == "IN_CLOSURE"


def test_decide_not_in_closure(torus12, capsys):
    code, out, _ = run(
        ["decide", "--rep", torus12, "--a", "1,0", "--b", "1,1", "--conify",
         "--degree-bound", "2", "--verbose"],
        capsys,
    )
    assert code == 1
    payload = json.loads(out)
    assert payload["verdict"] == "NOT_IN_CLOSURE"
    assert payload["transcript"]["degree_bound"] == 2
    assert payload["certificate"]["kind"] == "SOLUTION"


def test_decide_zero_base_without_conify(torus12, capsys):
    # the orbit of 0 is {0}: decide answers IN iff a = 0
    for a, code_wanted, verdict in (("1,1", 1, "NOT_IN_CLOSURE"), ("0,1", 1, "NOT_IN_CLOSURE"), ("0,0", 0, "IN_CLOSURE")):
        code, out, _ = run(["decide", "--rep", torus12, "--a", a, "--b", "0,0"], capsys)
        assert code == code_wanted
        assert json.loads(out)["verdict"] == verdict
    # --assume-conic is crosscheck's alone
    code, out, err = run(
        ["decide", "--rep", torus12, "--a", "1,1", "--b", "0,0", "--assume-conic"],
        capsys,
    )
    assert code == cli.EXIT_BAD_PARAMS == 2
    assert out == "" and "--assume-conic" in err
    # the paper's system still needs b != 0
    code, out, err = run(
        ["crosscheck", "--rep", torus12, "--a", "1,1", "--b", "0,0", "--assume-conic"],
        capsys,
    )
    assert code == cli.EXIT_PRECONDITION == 3
    assert out == "" and "nonzero" in err


def test_decide_takes_the_question_as_posed(torus12, capsys):
    # the orbit {(t, t^2)} is not conic; its closure is z2 = z1^2
    for a, code_wanted in (("2,4", 0), ("0,0", 0), ("2,3", 1), ("1,0", 1)):
        code, out, _ = run(["decide", "--rep", torus12, "--a", a, "--b", "1,1", "--verbose"], capsys)
        assert code == code_wanted, a
        payload = json.loads(out)
        assert payload["certificate"]["kind"] == ("REFUTATION" if code == 0 else "SOLUTION")
        assert payload["transcript"]["degree_bound_source"] == "parametric"


def test_decide_zero_base_with_conify_is_fine(torus12, capsys):
    # conifying restores a nonzero base: b = 0 maps to (1,0,...,0), whose
    # orbit closure is the scaling axis, and a = 0 maps onto that axis
    code, out, _ = run(
        ["decide", "--rep", torus12, "--a", "0,0", "--b", "0,0", "--conify",
         "--degree-bound", "2"],
        capsys,
    )
    assert code == 0
    assert json.loads(out)["verdict"] == "IN_CLOSURE"


def test_decide_resource_limit(torus12, capsys, monkeypatch):
    monkeypatch.setenv("ORBITCAL_MAX_NNZ", "5")
    code, _, err = run(
        ["decide", "--rep", torus12, "--a", "1,0", "--b", "1,1", "--conify",
         "--degree-bound", "2"],
        capsys,
    )
    assert code == 4
    assert "too large" in err


@pytest.mark.parametrize("value", ["0", "-5", "abc", "1.5"])
def test_decide_rejects_a_size_limit_that_is_not_a_positive_integer(torus12, capsys, monkeypatch, value):
    monkeypatch.setenv("ORBITCAL_MAX_NNZ", value)
    code, out, err = run(
        ["decide", "--rep", torus12, "--a", "1,0", "--b", "1,1", "--conify",
         "--degree-bound", "2"],
        capsys,
    )
    assert code == cli.EXIT_BAD_PARAMS == 2
    assert out == ""
    assert "ORBITCAL_MAX_NNZ must be a positive integer" in err and repr(value) in err


def test_closure_point(torus12, capsys):
    code, out, _ = run(["closure", "--rep", torus12, "--point", "1,1"], capsys)
    assert code == 0
    assert json.loads(out) == ["z1^2 - z2"]


def test_closure_subspace(tmp_path, torus12, capsys):
    sub = tmp_path / "line.json"
    sub.write_text(json.dumps({"l": 1, "images": ["y1", "1"]}))
    code, out, _ = run(["closure", "--rep", torus12, "--subspace", str(sub)], capsys)
    assert code == 0
    assert json.loads(out) == []


@pytest.mark.parametrize("both", [True, False], ids=["both", "neither"])
def test_closure_takes_exactly_one_of_point_and_subspace(tmp_path, torus12, capsys, both):
    # with both, the point's closure z1^2 - z2 would answer a question
    # about the swept line, whose closure has no equation
    argv = ["closure", "--rep", torus12]
    if both:
        sub = tmp_path / "line.json"
        sub.write_text(json.dumps({"l": 1, "images": ["y1", "1"]}))
        argv += ["--point", "1,1", "--subspace", str(sub)]
    code, out, err = run(argv, capsys)
    assert code == 2
    assert out == ""
    if both:
        assert "argument --subspace: not allowed with argument --point" in err
    else:
        assert "one of the arguments --point --subspace is required" in err


# a representation without parameters: its orbit is the point b itself
IDENTITY_REP = {"n": 2, "r": 0, "s": 0, "rho": [["1", "0"], ["0", "1"]]}


def test_closure_without_parameters(tmp_path, capsys):
    path = tmp_path / "identity.json"
    path.write_text(json.dumps(IDENTITY_REP))
    code, out, _ = run(["closure", "--rep", str(path), "--point", "1,1"], capsys)
    assert code == 0
    assert sorted(json.loads(out)) == ["z1 - 1", "z2 - 1"]


@pytest.mark.parametrize("a, verdict", [("1,1", "IN_CLOSURE"), ("1,2", "NOT_IN_CLOSURE")])
def test_crosscheck_without_parameters(tmp_path, capsys, a, verdict):
    path = tmp_path / "identity.json"
    path.write_text(json.dumps(IDENTITY_REP))
    code, out, _ = run(["crosscheck", "--rep", str(path), "--a", a, "--b", "1,1", "--assume-conic"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["agree"]
    assert payload["verdicts"] == {"decider": verdict, "elimination": verdict, "torus": verdict}


def test_closure_empty_subspace_rejected(tmp_path, torus12, capsys):
    sub = tmp_path / "empty.json"
    sub.write_text(json.dumps({"l": 0, "images": []}))
    code, _, err = run(["closure", "--rep", torus12, "--subspace", str(sub)], capsys)
    assert code == 2


def test_degree_sl2(capsys):
    code, out, _ = run(["degree", "sl2", "--h", "3"], capsys)
    assert code == 0
    assert out.strip() == "54"


def test_degree_binary_orbit(capsys):
    code, out, _ = run(
        ["degree", "binary-orbit", "--h", "3", "--mults", "1,1,1", "--stab", "1"],
        capsys,
    )
    assert code == 0
    assert out.strip() == "12"


def test_degree_parametric(torus12, capsys):
    code, out, _ = run(["degree", "parametric", "--rep", torus12], capsys)
    assert code == 0
    assert out.strip() == "2"


def test_degree_kazarnovskii(tmp_path, capsys):
    data = dict(SL2_REDUCTIVE)
    path = tmp_path / "sl2.json"
    path.write_text(json.dumps(data))
    code, out, _ = run(["degree", "kazarnovskii", "--data", str(path)], capsys)
    assert code == 0
    assert out.strip() == "8"

    data["weyl_order"] = 7
    path.write_text(json.dumps(data))
    code, _, err = run(["degree", "kazarnovskii", "--data", str(path)], capsys)
    assert code == 5
    assert "not a positive integer" in err


def test_oracle_torus(capsys):
    code, out, _ = run(
        ["oracle", "torus", "--weights", "1;2", "--a", "0,0", "--b", "1,1"], capsys
    )
    assert code == 0
    assert out.strip() == "IN_CLOSURE"
    code, out, _ = run(
        ["oracle", "torus", "--weights", "1;2", "--a", "1,0", "--b", "1,1"], capsys
    )
    assert code == 1
    assert out.strip() == "NOT_IN_CLOSURE"


def test_oracle_torus_eight_weights_answer_in_closure(capsys):
    # rank 4, eight weights in -3..3; plain Fourier-Motzkin needed more
    # than 50,000 combinations here
    weights = "3,0,3,0;-3,-1,1,0;0,3,3,-1;0,-1,1,-2;1,-2,-1,-2;3,-3,1,3;-1,1,2,3;1,-2,-1,-3"
    start = time.perf_counter()
    code, out, err = run(
        ["oracle", "torus", "--weights", weights, "--a", ",".join("0" * 8),
         "--b", ",".join("1" * 8)],
        capsys,
    )
    assert time.perf_counter() - start < 5
    assert code == 0
    assert out.strip() == "IN_CLOSURE"
    # 0 is a limit point of the orbit of (1, ..., 1) iff some lam has
    # lam . w > 0 on every weight w
    rows = [tuple(map(int, w.split(","))) for w in weights.split(";")]
    assert any(
        all(sum(x * y for x, y in zip(lam, w)) > 0 for w in rows)
        for lam in itertools.product(range(-3, 4), repeat=4)
    )


def test_oracle_torus_rank_eight_twenty_weights_answers(capsys):
    # rank 8 with 20 weights spanning Q^8: C(20, 7) = 77,520 sets of
    # generators would have to be tried as spans of a facet
    rng = random.Random(0)
    rows = [tuple(rng.randint(-3, 3) for _ in range(8)) for _ in range(20)]
    weights = ";".join(",".join(map(str, w)) for w in rows)
    start = time.perf_counter()
    code, out, err = run(
        ["oracle", "torus", "--weights", weights, "--a", ",".join("0" * 20),
         "--b", ",".join("1" * 20)],
        capsys,
    )
    assert time.perf_counter() - start < 5
    assert code == 1
    assert out.strip() == "NOT_IN_CLOSURE"
    # 0 is a limit point of the orbit of (1, ..., 1) only if the cone of
    # the weights is pointed; a nonnegative dependence with sum 1 shows
    # that it is not
    y = _nonnegative_solution([(*w, 1) for w in rows], (0,) * 8 + (1,))
    assert y is not None and min(y) >= 0 and sum(y) == 1
    assert all(sum(c * w[i] for c, w in zip(y, rows)) == 0 for i in range(8))


@pytest.mark.parametrize(
    "command, option",
    [("decide", "--exact-dim"), ("crosscheck", "--exact-dim"), ("closure", "--entry-denominators")],
)
def test_removed_options_are_rejected(torus12, capsys, command, option):
    args = [command, "--rep", torus12, option]
    if command == "closure":
        args += ["--point", "1,1"]
    else:
        args += ["--a", "0,0", "--b", "1,1", "--conify", "--degree-bound", "2"]
    code, out, err = run(args, capsys)
    assert code == 2
    assert out == ""
    assert f"unrecognized arguments: {option}" in err


def test_crosscheck_agreement(torus12, capsys):
    code, out, _ = run(
        ["crosscheck", "--rep", torus12, "--a", "0,0", "--b", "1,1", "--conify",
         "--degree-bound", "2"],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["agree"]
    assert payload["verdicts"]["decider"] == "IN_CLOSURE"
    assert payload["verdicts"]["elimination"] == "IN_CLOSURE"
    assert payload["verdicts"]["torus"] == "IN_CLOSURE"


def test_crosscheck_detects_undersized_bound(torus12, capsys):
    code, out, _ = run(
        ["crosscheck", "--rep", torus12, "--a", "1,0", "--b", "1,1", "--conify",
         "--degree-bound", "1"],
        capsys,
    )
    assert code == 6
    payload = json.loads(out)
    assert not payload["agree"]
    assert payload["verdicts"]["decider"] != payload["verdicts"]["elimination"]
    assert "decider_transcript" in payload


def test_crosscheck_hyperbola_battery(capsys, tmp_path):
    path = tmp_path / "hyp.json"
    code, _, _ = run(["gen", "torus", "--weights", "1;-1", "--out", str(path)], capsys)
    assert code == 0
    for a, expected in (("2,1/2", 0), ("0,0", 0), ("1,2", 0)):
        code, out, _ = run(
            ["crosscheck", "--rep", str(path), "--a", a, "--b", "1,1", "--conify",
             "--degree-bound", "2"],
            capsys,
        )
        assert code == expected, (a, out)


def test_crosscheck_quadratic_forms(tmp_path, capsys):
    path = tmp_path / "sl2h2.json"
    code, _, _ = run(["gen", "sl2", "--h", "2", "--out", str(path)], capsys)
    assert code == 0
    code, out, _ = run(
        ["crosscheck", "--rep", str(path), "--a", "0,1,0", "--b", "1,2,1",
         "--conify", "--degree-bound", "2"],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["agree"]
    assert payload["verdicts"]["decider"] == "NOT_IN_CLOSURE"
    assert "torus" not in payload["verdicts"]  # not a diagonal action


@pytest.mark.parametrize(
    "rho",
    [[["x1", "x1"], ["0", "x1^2"]], [["2*x1", "0"], ["0", "x1^2"]]],
    ids=["off-diagonal-entry", "scaled-diagonal-entry"],
)
def test_crosscheck_runs_no_torus_oracle_off_diagonal_actions(tmp_path, capsys, rho):
    path = tmp_path / "rep.json"
    path.write_text(json.dumps({"n": 2, "r": 1, "s": 0, "rho": rho, "degree_bound": None}))
    code, out, _ = run(["crosscheck", "--rep", str(path), "--a", "0,0", "--b", "1,1", "--conify"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["verdicts"] == {"decider": "IN_CLOSURE", "elimination": "IN_CLOSURE"}



def test_crosscheck_argument_handling(tmp_path, torus12, capsys):
    # crosscheck loads its problem exactly as decide does
    code, _, err = run(
        ["crosscheck", "--rep", torus12, "--a", "1", "--b", "1,1", "--conify"], capsys
    )
    assert code == 2
    assert "length" in err
    code, _, err = run(
        ["crosscheck", "--rep", torus12, "--a", "1,0", "--b", "1,1",
         "--degree-bound", "2"],
        capsys,
    )
    assert code == 3
    assert "conic" in err
    # the scaling line is conic as given, so --assume-conic needs no reduction
    path = tmp_path / "line.json"
    code, _, _ = run(["gen", "torus", "--weights", "1;1", "--out", str(path)], capsys)
    assert code == 0
    for a, verdict in (("0,0", "IN_CLOSURE"), ("1,2", "NOT_IN_CLOSURE")):
        code, out, _ = run(
            ["crosscheck", "--rep", str(path), "--a", a, "--b", "1,1", "--assume-conic"],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["agree"]
        assert set(payload["verdicts"].values()) == {verdict}

def test_seed_reproducibility(torus12, capsys):
    args = ["decide", "--rep", torus12, "--a", "1,0", "--b", "1,0", "--conify",
            "--degree-bound", "2", "--seed", "3", "--verbose"]
    code1, out1, _ = run(args, capsys)
    code2, out2, _ = run(args, capsys)
    assert (code1, out1) == (code2, out2)


def test_vector_length_validation(torus12, capsys):
    code, _, err = run(
        ["decide", "--rep", torus12, "--a", "1", "--b", "1,1", "--conify"], capsys
    )
    assert code == 2
    assert "length" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["decide", "--a", "1,,2", "--b", "1,1"],
        ["decide", "--a", "1,2,", "--b", "1,1"],
        ["oracle", "torus", "--weights", "1;;2", "--a", "1,0", "--b", "1,1"],
    ],
    ids=["inner-comma", "trailing-comma", "empty-weight"],
)
def test_empty_fields_exit_2(torus12, capsys, argv):
    # an empty field is an error, not a shorter vector or weight list
    if argv[0] == "decide":
        argv = argv[:1] + ["--rep", torus12] + argv[1:] + ["--conify", "--degree-bound", "2"]
    code, out, err = run(argv, capsys)
    assert code == cli.EXIT_BAD_PARAMS == 2
    assert out == "" and "empty" in err


def test_internal_failures_exit_7(torus12, capsys, monkeypatch):
    # a failed plug-back must not read as a verdict (code 1 would be
    # NOT_IN_CLOSURE): it leaves with EXIT_INTERNAL and prints nothing
    from orbitcal import decider
    from orbitcal.errors import CertificateError

    args = ["decide", "--rep", torus12, "--a", "1,0", "--b", "1,1", "--conify",
            "--degree-bound", "2"]

    def failed_plug_back(matrix, rhs):
        raise CertificateError("internal solution failed plug-back")

    monkeypatch.setattr(decider, "solve_or_refute", failed_plug_back)
    code, out, err = run(args, capsys)
    assert code == cli.EXIT_INTERNAL == 7
    assert out == ""
    assert "plug-back" in err


def test_unexpected_exception_exits_7(torus12, capsys, monkeypatch):
    from orbitcal import decider

    def broken(*args, **kwargs):
        raise TypeError("unsupported operand")

    monkeypatch.setattr(decider, "decide", broken)
    code, out, err = run(
        ["decide", "--rep", torus12, "--a", "1,0", "--b", "1,1", "--conify"], capsys
    )
    assert code == cli.EXIT_INTERNAL == 7
    assert out == ""
    assert "internal error: unsupported operand" in err


def test_malformed_representation_file_exits_2(tmp_path, capsys):
    # a TypeError here used to escape, and exit 1 reads as NOT_IN_CLOSURE
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"n": 2, "r": 1, "s": 0, "rho": 5}))
    code, out, err = run(["decide", "--rep", str(path), "--a", "1,0", "--b", "1,1"], capsys)
    assert code == cli.EXIT_BAD_PARAMS == 2
    assert out == ""
    assert "malformed representation data" in err


def test_malformed_subspace_file_exits_2(tmp_path, torus12, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"l": 1, "images": 5}))
    code, _, err = run(["closure", "--rep", torus12, "--subspace", str(path)], capsys)
    assert code == 2
    assert "malformed subspace data" in err


def test_malformed_reductive_data_file_exits_2(tmp_path, capsys):
    data = {**SL2_REDUCTIVE, "exponents": 5}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    code, _, err = run(["degree", "kazarnovskii", "--data", str(path)], capsys)
    assert code == 2
    assert "malformed reductive data" in err


@pytest.mark.parametrize(
    "kind, field, value",
    [
        ("rep", "rho", ["12", "34"]),
        ("rep", "rho", "x1"),
        ("subspace", "images", "12"),
        ("reductive", "exponents", "1"),
        ("reductive", "coroots", ["1"]),
        ("reductive", "polytope", [["-2", "0"], ["0", "2"]]),
        ("rep", "rho", [[{"1": 1}, "0"], ["0", {"2": 1}]]),
        ("subspace", "images", [{"1": 1}, "1"]),
    ],
)
def test_string_where_a_list_belongs_exits_2(tmp_path, torus12, capsys, kind, field, value):
    # iterating a string reads its characters as entries: "rho": ["12",
    # "34"] was the matrix [[1, 2], [3, 4]] and "images": "12" the point
    # (1, 2), whose closure equations were printed with exit 0.  A JSON
    # object's keys are strings too: {"2": 1} was read as the term x1^2
    payload, argv, data = {
        "rep": ({"n": 2, "r": 1, "s": 0, "rho": [["x1", "0"], ["0", "x1^2"]]}, ["degree", "parametric", "--rep"],
                "representation"),
        "subspace": ({"l": 1, "images": ["y1", "1"]}, ["closure", "--rep", torus12, "--subspace"], "subspace"),
        "reductive": (dict(SL2_REDUCTIVE), ["degree", "kazarnovskii", "--data"], "reductive"),
    }[kind]
    path = tmp_path / "data.json"
    path.write_text(json.dumps(payload))
    assert run(argv + [str(path)], capsys)[0] == 0
    path.write_text(json.dumps({**payload, field: value}))
    code, out, err = run(argv + [str(path)], capsys)
    assert code == cli.EXIT_BAD_PARAMS == 2
    assert out == "" and f"malformed {data} data" in err


@pytest.mark.parametrize(
    "kind, field, value",
    [
        ("rep", "degree_bound", 2.9),
        ("rep", "degree_bound", True),
        ("rep", "n", True),
        ("rep", "r", 1.5),
        ("subspace", "l", 1.5),
        ("subspace", "l", True),
        ("reductive", "dim_g", 3.9),
        ("reductive", "kernel_order", 2.5),
        ("reductive", "weyl_order", True),
        ("reductive", "exponents", [1.5]),
    ],
)
def test_non_integral_json_integers_exit_2(tmp_path, torus12, capsys, kind, field, value):
    # truncation would turn a degree bound of 2.9 into 2, lowering the
    # bound an IN verdict rests on, and true into 1
    payload, argv = {
        "rep": ({"n": 1, "r": 1, "s": 0, "rho": [["x1"]], "degree_bound": 3}, ["degree", "parametric", "--rep"]),
        "subspace": ({"l": 1, "images": ["y1", "1"]}, ["closure", "--rep", torus12, "--subspace"]),
        "reductive": (dict(SL2_REDUCTIVE), ["degree", "kazarnovskii", "--data"]),
    }[kind]
    path = tmp_path / "data.json"
    path.write_text(json.dumps(payload))
    assert run(argv + [str(path)], capsys)[0] == 0
    path.write_text(json.dumps({**payload, field: value}))
    code, out, err = run(argv + [str(path)], capsys)
    assert code == 2
    assert out == ""
    assert "expected an integer" in err


@pytest.mark.parametrize(
    "kind, text",
    [("rep", "x1^"), ("rep", "2/"), ("rep", "x1*"), ("rep", "+"), ("rep", "3/0*x1^2"),
     ("rep", "x1 x2"), ("rep", "x1^a"), ("rep", "x1 $"),
     ("subspace", "y1^"), ("subspace", "2/"), ("subspace", "y1*"), ("subspace", "+"), ("subspace", "3/0*y1")],
)
def test_malformed_polynomial_text_exits_2(tmp_path, torus12, capsys, kind, text):
    # truncated text and zero denominators are bad input, not internal errors
    path = tmp_path / "bad.json"
    if kind == "rep":
        payload = json.loads(Path(torus12).read_text())
        payload["rho"][0][0] = text
        path.write_text(json.dumps(payload))
        argv = ["decide", "--rep", str(path), "--a", "0,0", "--b", "1,1", "--conify"]
    else:
        path.write_text(json.dumps({"l": 1, "images": [text, "y1"]}))
        argv = ["closure", "--rep", torus12, "--subspace", str(path)]
    code, out, err = run(argv, capsys)
    assert code == cli.EXIT_BAD_PARAMS == 2
    assert out == "" and "internal error" not in err


@pytest.mark.parametrize("kind", ["rep", "subspace"])
def test_negative_exponent_on_an_ordinary_variable_exits_2(tmp_path, capsys, kind):
    # x2 and x3 of the sl2 parametrization and every y are ordinary
    # variables: the file is refused where it is read
    rep = tmp_path / "sl2.json"
    assert run(["gen", "sl2", "--h", "1", "--out", str(rep)], capsys)[0] == 0
    path = tmp_path / "bad.json"
    if kind == "rep":
        payload = json.loads(rep.read_text())
        payload["rho"][0][1] = "x1^-1*x2^-1"
        path.write_text(json.dumps(payload))
        argv = ["decide", "--rep", str(path), "--a", "1,0", "--b", "1,0"]
    else:
        path.write_text(json.dumps({"l": 1, "images": ["y1^-1", "1"]}))
        argv = ["closure", "--rep", str(rep), "--subspace", str(path)]
    code, out, err = run(argv, capsys)
    assert code == cli.EXIT_BAD_PARAMS == 2
    assert out == "" and "negative exponent on non-invertible variable" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["decide", "--a", "1/0,0", "--b", "1,1", "--conify"],
        ["decide", "--a", "0,0", "--b", "1,1/0", "--conify"],
        ["closure", "--point", "1/0,1"],
        ["oracle", "torus", "--weights", "1;2", "--a", "0,0", "--b", "1/0,1"],
        ["degree", "kazarnovskii"],
    ],
    ids=["decide-a", "decide-b", "closure-point", "oracle-b", "kazarnovskii-data"],
)
def test_zero_denominator_exits_2(tmp_path, torus12, capsys, argv):
    if argv[0] in ("decide", "closure"):
        argv = argv[:1] + ["--rep", torus12] + argv[1:]
    if argv[0] == "degree":
        data = {
            "dim_g": 3,
            "weyl_order": 2,
            "exponents": [1],
            "kernel_order": 2,
            "coroots": [["1"]],
            "polytope": [[["1/0"], ["0"]]],
        }
        path = tmp_path / "data.json"
        path.write_text(json.dumps(data))
        argv = argv + ["--data", str(path)]
    code, out, err = run(argv, capsys)
    assert code == cli.EXIT_BAD_PARAMS == 2
    assert out == "" and "internal error" not in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["decide", "--a", "1,1", "--b", "1,1", "--degree-bound", "0"], "degree bound override must be >= 1"),
        (["closure", "--point", "1,1,1"], "point must have length 2"),
        (["oracle", "torus", "--weights", "1;2", "--a", "1,0,0", "--b", "1,1"], "vectors must have length 2"),
        (["gen", "sl2"], "gen sl2 requires --h"),
        (["gen", "torus"], "gen torus requires --weights"),
        (["degree", "sl2"], "degree sl2 requires --h"),
        (["degree", "binary-orbit"], "degree binary-orbit requires --h and --mults"),
        (["degree", "parametric"], "degree parametric requires --rep"),
        (["degree", "kazarnovskii"], "degree kazarnovskii requires --data"),
        (["oracle", "torus", "--weights", "1,0;1", "--a", "1,1", "--b", "1,1"], "inconsistent weight lengths"),
    ],
    ids=["decide-bound", "closure-point", "oracle-a", "gen-sl2", "gen-torus", "degree-sl2", "degree-binary-orbit",
         "degree-parametric", "degree-kazarnovskii", "oracle-weights"],
)
def test_missing_or_misfit_options_exit_2(torus12, capsys, argv, message):
    if argv[0] in ("decide", "closure"):
        argv = argv[:1] + ["--rep", torus12] + argv[1:]
    code, out, err = run(argv, capsys)
    assert code == cli.EXIT_BAD_PARAMS == 2
    assert out == "" and message in err and "internal error" not in err


@pytest.mark.parametrize(
    "kind, field, value, message",
    [
        ("rep", "n", 0, "module dimension must be >= 1"),
        ("rep", "rho", [["x1", "0"], ["0"]], "rho must be an n x n matrix"),
        ("rep", "degree_bound", 0, "degree bound must be >= 1"),
        ("rep", "r", -1, "negative variable count"),
        ("subspace", "l", -1, "negative parameter count"),
        ("subspace", "images", ["y1"], "subspace image count must equal the dimension"),
        ("subspace", "images", ["y1", "1", "0"], "subspace image count must equal the dimension"),
        ("reductive", "weyl_order", 0, "Weyl group order must be >= 1"),
        ("reductive", "kernel_order", 0, "kernel order must be >= 1"),
        ("reductive", "coroots", [["1", "0"]], "coroot length disagrees with rank"),
    ],
)
def test_out_of_range_file_fields_exit_2(tmp_path, torus12, capsys, kind, field, value, message):
    payload, argv = {
        "rep": ({"n": 2, "r": 1, "s": 0, "rho": [["x1", "0"], ["0", "x1^2"]], "degree_bound": 2},
                ["degree", "parametric", "--rep"]),
        "subspace": ({"l": 1, "images": ["y1", "1"]}, ["closure", "--rep", torus12, "--subspace"]),
        "reductive": (dict(SL2_REDUCTIVE), ["degree", "kazarnovskii", "--data"]),
    }[kind]
    path = tmp_path / "data.json"
    path.write_text(json.dumps(payload))
    assert run(argv + [str(path)], capsys)[0] == 0
    path.write_text(json.dumps({**payload, field: value}))
    code, out, err = run(argv + [str(path)], capsys)
    assert code == cli.EXIT_BAD_PARAMS == 2
    assert out == "" and message in err and "internal error" not in err


def test_decide_guard_fires_before_building_the_system(tmp_path, capsys, monkeypatch):
    # the parametric fallback for the conified torus (1,0;1,1;1,2) is
    # d = 64: C(68, 4) = 814,385 columns and, with no zero coordinate in
    # a, as many evaluation-row entries, over the limit together, so the
    # size guard must trip before the evaluation system is built
    from orbitcal import decider

    def unreachable(*args, **kwargs):
        raise RuntimeError("the images were built past the size guard")

    monkeypatch.setattr(decider, "monomial_images", unreachable)
    monkeypatch.delenv("ORBITCAL_MAX_NNZ", raising=False)
    path = tmp_path / "torus.json"
    code, _, _ = run(["gen", "torus", "--weights", "1,0;1,1;1,2", "--out", str(path)], capsys)
    assert code == 0
    code, out, err = run(
        ["decide", "--rep", str(path), "--a", "1,1,1", "--b", "1,1,1", "--conify"],
        capsys,
    )
    assert code == cli.EXIT_RESOURCE == 4
    assert out == ""
    assert (
        "evaluation system too large before assembly: 814385 columns + 814385 "
        "evaluation-row entries at degree bound d = 64 (limit 1000000 nonzeros)"
    ) in err


def test_readme_cli_lines_parse():
    # every command of README's CLI section is accepted by the parser
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = re.search(r"## CLI\n\n```text\n(.*?)```", readme, re.S).group(1)
    lines = block.splitlines()
    assert len(lines) == 11
    parser = cli.build_parser()
    for line in lines:
        argv = shlex.split(line, comments=True)
        assert argv[0] == "orbitcal"
        assert callable(getattr(cli, "cmd_" + parser.parse_args(argv[1:]).command)), line


def test_usage_errors_return_their_exit_code(tmp_path, torus12, capsys):
    # argparse's own outcomes come back from main, not as SystemExit, and
    # leave the process's one parser fit for the next question
    code = cli.main(["decide"])
    out, err = capsys.readouterr()
    assert code == cli.EXIT_BAD_PARAMS == 2
    assert out == ""
    assert "orbitcal decide: error: the following arguments are required: --rep, --a, --b" in err
    sub = tmp_path / "line.json"
    sub.write_text(json.dumps({"l": 1, "images": ["y1", "1"]}))
    code = cli.main(["closure", "--rep", torus12, "--point", "1,1", "--subspace", str(sub)])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == "" and "argument --subspace: not allowed with argument --point" in err
    code = cli.main(["decide", "--help"])
    out, err = capsys.readouterr()
    assert code == 0
    assert out.startswith("usage: orbitcal decide") and err == ""
    code = cli.main(["decide", "--rep", torus12, "--a", "0,0", "--b", "1,1", "--conify", "--degree-bound", "2"])
    out, _ = capsys.readouterr()
    assert code == 0
    assert json.loads(out)["verdict"] == "IN_CLOSURE"


def test_calls_sharing_the_parser_are_isolated():
    # a value one call sets must not leak as a default into the next
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = re.search(r"## CLI\n\n```text\n(.*?)```", readme, re.S).group(1)
    lines = [shlex.split(line, comments=True)[1:] for line in block.splitlines()]
    assert len(lines) == 11
    non_default = [
        ["degree", "binary-orbit", "--h", "3", "--mults", "1,1,1", "--stab", "2"],
        ["decide", "--rep", "rep.json", "--a", "0,0", "--b", "1,1", "--seed", "5", "--verbose", "--conify"],
        ["closure", "--rep", "rep.json", "--subspace", "L.json"],
    ]
    shared = cli._parser()
    for argv in lines + lines + lines[::-1]:
        for args in non_default + [argv]:
            assert vars(shared.parse_args(args)) == vars(cli.build_parser().parse_args(args)), args
    assert cli._parser() is shared


def test_verbose_does_not_outlive_its_call(torus12, capsys):
    argv = ["decide", "--rep", torus12, "--a", "1,0", "--b", "1,1", "--conify", "--degree-bound", "2"]
    code, out, _ = run(argv + ["--verbose"], capsys)
    assert code == 1 and "transcript" in json.loads(out)
    code, out, _ = run(argv, capsys)
    assert code == 1 and "transcript" not in json.loads(out)


def test_one_process_builds_one_parser(torus12, capsys, monkeypatch):
    built = []
    build = cli.build_parser

    def counting():
        built.append(1)
        return build()

    cli._parser.cache_clear()
    monkeypatch.setattr(cli, "build_parser", counting)
    calls = [
        (["degree", "sl2", "--h", "2"], 0),
        (["oracle", "torus", "--weights", "1;2", "--a", "1,0", "--b", "1,1"], 1),
        (["decide", "--rep", torus12, "--a", "0,0", "--b", "1,1", "--conify", "--degree-bound", "2"], 0),
        (["degree", "sl2", "--h", "3"], 0),
        (["oracle", "torus", "--weights", "1;2", "--a", "0,0", "--b", "1,1"], 0),
    ]
    for argv, want in calls:
        assert run(argv, capsys)[0] == want, argv
    assert len(built) == 1
    assert build() is not build()


def test_main_runs_the_handler_bound_at_call_time(capsys, monkeypatch):
    # a wrapper installed after the parser was built (perfbench's tracer
    # wraps every cmd_*) still sees the call
    assert run(["degree", "sl2", "--h", "2"], capsys)[:2] == (0, "8\n")
    seen = []
    original = cli.cmd_degree

    def wrapped(args):
        seen.append(args.kind)
        return original(args)

    monkeypatch.setattr(cli, "cmd_degree", wrapped)
    assert run(["degree", "sl2", "--h", "3"], capsys)[:2] == (0, "54\n")
    assert seen == ["sl2"]
