"""CLI contract: exit codes, JSON output, determinism, file inputs."""

import hashlib
import json
import os
import subprocess
import sys

from hypersos.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cone_member_exit_codes(capsys):
    code, out, _ = run(
        capsys, "cone-member", "--poly", "x^2-y^2-z^2", "--vars", "x,y,z",
        "--e", "1,0,0", "--a", "2,1,0", "--no-timings",
    )
    assert code == 0
    assert json.loads(out)["verdict"]["status"] == "CERTIFIED_YES"
    code, out, _ = run(
        capsys, "cone-member", "--poly", "x^2-y^2-z^2", "--vars", "x,y,z",
        "--e", "1,0,0", "--a", "1,2,0", "--no-timings",
    )
    assert code == 1
    # every rational in the output is "n/d", integers included
    assert json.loads(out)["verdict"]["witness"]["a"] == ["1/1", "2/1", "0/1"]


def test_vamos_repro_cli(capsys):
    code, out, _ = run(capsys, "vamos-repro", "--no-timings")
    assert code == 1  # the restricted Wronskian is certifiably not SOS
    data = json.loads(out)
    assert data["gram_det"] == "-1/4"
    assert data["conclusion"]["status"] == "CERTIFIED_NO"


def test_gen_elementary_symmetric(capsys):
    code, out, _ = run(capsys, "gen", "elementary-symmetric", "--n", "4", "--d", "2", "--no-timings")
    assert code == 0
    data = json.loads(out)
    assert data["poly"] == "x1*x2 + x1*x3 + x1*x4 + x2*x3 + x2*x4 + x3*x4"


# sha256 of `gen sym-det --d <d> --no-timings` stdout: the determinant's canonical text
SYM_DET_SHA256 = {
    2: "ce5b1f39c0f94838a01ce9b84466a76a041244d05210e3febc0c84c0d3ae65b2",
    3: "544cc438d9df3bd91d3c281a404249be585739ce8e39ab49012f2aadbb87ecb9",
    4: "6cb73d1b8b30908696514b606aa45442108995d2a35d7484683d1d7423ee4242",
    5: "7acea73c7cba377ab2fc1d237fea484de4c66ac6bac7d931bc8e1c7ac79951eb",
}


def test_gen_sym_det_output_is_pinned(capsys):
    for d, digest in SYM_DET_SHA256.items():
        code, out, _ = run(capsys, "gen", "sym-det", "--d", str(d), "--no-timings")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest, d


def test_gen_families(capsys):
    for argv in (
        ["gen", "product", "--n", "3"],
        ["gen", "lorentz", "--n", "4"],
        ["gen", "sym-det", "--d", "2"],
        ["gen", "cubic-example"],
        ["gen", "vamos"],
    ):
        code, out, _ = run(capsys, *argv, "--no-timings")
        assert code == 0
        data = json.loads(out)
        assert data["poly"]


def test_deterministic_output(capsys):
    argv = [
        "sos-cone-member", "--poly", "x^2-y^2-z^2", "--vars", "x,y,z",
        "--e", "1,0,0", "--a", "2,1,0", "--no-timings",
    ]
    code1, out1, _ = run(capsys, *argv)
    code2, out2, _ = run(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2


def test_parse_error_exit_3(capsys):
    code, _, err = run(
        capsys, "delta", "--poly", "x^2 + $", "--vars", "x,y",
        "--e", "1,0", "--a", "0,1", "--no-timings",
    )
    assert code == 3
    data = json.loads(err)
    assert "position" in data


def test_missing_flag_exit_3(capsys):
    code, _, err = run(capsys, "cone-member", "--poly", "x^2", "--vars", "x", "--no-timings")
    assert code == 3


def test_delta_output(capsys):
    code, out, _ = run(
        capsys, "delta", "--poly", "x^2-y^2-z^2", "--vars", "x,y,z",
        "--e", "1,0,0", "--a", "2,1,0", "--no-timings",
    )
    assert code == 0
    assert json.loads(out)["delta"] == "4*x^2 - 4*x*y + 4*y^2 + 4*z^2"


def test_delta_output_with_rational_directions(capsys):
    code, out, _ = run(
        capsys, "delta", "--poly", "x^3 - 2*x*y^2 - x*z^2 + 1/3*y^2*z", "--vars", "x,y,z",
        "--e", "3/2,1/7,0", "--a", "2,-1/3,5/11", "--no-timings",
    )
    assert code == 0
    assert json.loads(out)["delta"] == (
        "185/21*x^4 + 386/231*x^3*y - 1868/693*x^3*z + 139/462*x^2*y^2 + 1/11*x^2*y*z"
        " + 4/21*x^2*z^2 - 370/63*x*y^2*z - 10/231*x*y*z^2 - 2/63*x*z^3 + 127/11*y^4"
        " + 50797/4158*y^2*z^2 + 1/7*y*z^3 + 3*z^4"
    )


def test_wronskian_commands_reject_bad_directions_exit_3(capsys):
    lorentz = ("--poly", "x^2-y^2-z^2", "--vars", "x,y,z")
    cases = (
        ("delta", lorentz, "1,0", "2,1,0", "direction length 2 != nvars 3"),
        ("delta", lorentz, "1,0,0", "2,1", "direction length 2 != nvars 3"),
        ("delta", lorentz, "1,0,0,0", "2,1", "direction length 4 != nvars 3"),
        ("sos-cone-member", lorentz, "1,0", "2,1,0", "direction length must equal nvars"),
        ("sos-cone-member", lorentz, "1,0,0", "2,1", "direction length 2 != nvars 3"),
        ("sos-cone-member", lorentz, "1,0,0", "2,1,0,4", "direction length 4 != nvars 3"),
        # an inhomogeneous f is rejected before any direction is read
        ("delta", ("--poly", "x^2-y^2-z", "--vars", "x,y,z"), "1,0,0", "2,1", "f must be homogeneous of degree >= 1"),
        ("sos-cone-member", ("--poly", "x^2-y^2-z", "--vars", "x,y,z"), "1,0,0", "2,1,0", "f must be homogeneous"),
    )
    for command, poly, e, a, message in cases:
        code, out, err = run(capsys, command, *poly, "--e", e, "--a", a, "--no-timings")
        assert (code, out) == (3, "")
        assert err == json.dumps({"error": message}) + "\n"


def test_poly_from_file(tmp_path, capsys):
    path = tmp_path / "poly.txt"
    path.write_text("x^2 - y^2 - z^2")
    code, out, _ = run(
        capsys, "check-hyperbolic", "--poly", f"@{path}", "--vars", "x,y,z",
        "--e", "1,0,0", "--trials", "16", "--no-timings",
    )
    assert code == 0
    assert "sampled=true" in json.loads(out)["verdict"]["detail"]


def test_detrep_build_verify_round_trip(tmp_path, capsys):
    rep_path = tmp_path / "rep.json"
    code, out, _ = run(
        capsys, "detrep-build", "--poly", "x1*x2 + x1*x3 + x2*x3", "--vars", "x1,x2,x3",
        "--dvars", "x1,x2", "--e", "1,1,1", "--cert-out", str(rep_path), "--no-timings",
    )
    assert code == 0
    assert rep_path.exists()
    code2, out2, _ = run(
        capsys, "detrep-verify", "--poly", "x1*x2 + x1*x3 + x2*x3", "--vars", "x1,x2,x3",
        "--rep", f"@{rep_path}", "--no-timings",
    )
    assert code2 == 0
    assert json.loads(out2)["ok"] is True
    # verification against the wrong polynomial fails with exit 1
    code3, out3, _ = run(
        capsys, "detrep-verify", "--poly", "x1*x2", "--vars", "x1,x2,x3",
        "--rep", f"@{rep_path}", "--no-timings",
    )
    assert code3 == 1


def test_detrep_build_where_det_a_vanishes_off_e(tmp_path, capsys):
    # f = (3x - y) * z: det A vanishes on 3x = y, but not at e or at the
    # points the builder reads A at
    rep_path = tmp_path / "rep.json"
    poly = ["--poly", "3*x*z - y*z", "--vars", "x,y,z", "--no-timings"]
    code, out, _ = run(
        capsys, "detrep-build", *poly, "--dvars", "x,z", "--e", "2,1,3", "--cert-out", str(rep_path),
    )
    assert code == 0
    assert json.loads(out)["representation"]["gamma"] == "3/1"
    code2, out2, _ = run(capsys, "detrep-verify", *poly, "--rep", f"@{rep_path}")
    assert code2 == 0
    assert json.loads(out2)["ok"] is True


def test_detrep_build_obstruction_exit_1(capsys):
    code, out, _ = run(
        capsys, "detrep-build", "--poly", "x1*x2+x1*x3+x1*x4+x2*x3+x2*x4+x3*x4",
        "--vars", "x1,x2,x3,x4", "--dvars", "x1,x2", "--e", "1,1,1,1", "--no-timings",
    )
    assert code == 1
    data = json.loads(out)
    assert data["verdict"]["witness"]["pair"] == ["x1", "x2"]


def test_sos_certify_with_certificate_file(tmp_path, capsys):
    cert_path = tmp_path / "cert.json"
    code, out, _ = run(
        capsys, "sos-certify", "--poly", "x^2 + 2*x*y + y^2", "--vars", "x,y",
        "--cert-out", str(cert_path), "--no-timings",
    )
    assert code == 0
    data = json.loads(out)
    assert data["certificate_path"] == str(cert_path)
    from hypersos.soscert import SosCertificate

    cert = SosCertificate.from_json(cert_path.read_text())
    assert cert.verify()


def test_interlaces_cli(capsys):
    code, out, _ = run(
        capsys, "interlaces", "--poly", "x^2-y^2-z^2", "--vars", "x,y,z",
        "--e", "1,0,0", "--g", "x", "--trials", "16", "--sos-budget", "1", "--no-timings",
    )
    assert code == 0


def test_stable_check_cli(capsys):
    code, out, _ = run(
        capsys, "stable-check", "--poly", "x1*x2 + x1*x3 + x2*x3", "--vars", "x1,x2,x3",
        "--sos-budget", "0", "--no-timings",
    )
    assert code == 0
    code2, _, err = run(
        capsys, "stable-check", "--poly", "x1^2", "--vars", "x1,x2", "--no-timings",
    )
    assert code2 == 3  # not multiaffine is an input error


def test_stable_check_names_its_witness_pairs(capsys):
    # Delta_xw = (y z + z^2) / 100 is negative at a sampled point: the pair reads (x, w), not [0, 3]
    poly = ["--poly", "x*y + x*z + y*z + z*w/100", "--vars", "x,y,z,w", "--no-timings"]
    code, out, _ = run(capsys, "stable-check", *poly)
    verdict = json.loads(out)["verdict"]
    assert code == 1 and verdict["status"] == "CERTIFIED_NO"
    assert verdict["witness"]["pair"] == ["x", "w"]
    assert "Delta_03" not in verdict["detail"]
    # one sample at bound 1 misses every negative value, and no Wronskian is a sum of squares
    code, out, _ = run(capsys, "stable-check", *poly, "--sos-budget", "0", "--trials", "1", "--bound", "1")
    verdict = json.loads(out)["verdict"]
    assert code == 2 and verdict["status"] == "UNKNOWN"
    assert verdict["witness"]["uncertified_pairs"] == [
        ["x", "y"], ["x", "z"], ["x", "w"], ["y", "z"], ["y", "w"], ["z", "w"],
    ]
    assert "(0, 1)" not in verdict["detail"]


def test_stable_check_of_a_polynomial_with_a_leading_minus(capsys):
    # argparse reads a separate "-x1*x2..." as an option; the --poly=... form passes it as the value
    code, _, err = run(capsys, "stable-check", "--poly", "-x1*x2-x1*x3-x2*x3", "--vars", "x1,x2,x3", "--no-timings")
    assert code == 3 and json.loads(err) == {"error": "argument --poly: expected one argument"}
    # Delta_ij(-f) = Delta_ij(f)
    verdicts = []
    for poly in ("--poly=-x1*x2-x1*x3-x2*x3", "--poly=x1*x2+x1*x3+x2*x3"):
        code, out, _ = run(capsys, "stable-check", poly, "--vars", "x1,x2,x3", "--no-timings")
        assert code == 0
        verdicts.append(json.loads(out)["verdict"])
    assert verdicts[0] == verdicts[1] and verdicts[0]["status"] == "CERTIFIED_YES"


def test_python_dash_m_runs_the_cli():
    import hypersos

    src = os.path.dirname(os.path.dirname(os.path.abspath(hypersos.__file__)))
    proc = subprocess.run([sys.executable, "-m", "hypersos", "gen", "lorentz", "--n", "3", "--no-timings"],
                          capture_output=True, text=True, timeout=60, env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"family": "lorentz", "poly": "x^2 - y^2 - z^2", "vars": ["x", "y", "z"]}


def test_text_format(capsys):
    code, out, _ = run(
        capsys, "cone-member", "--poly", "x^2-y^2-z^2", "--vars", "x,y,z",
        "--e", "1,0,0", "--a", "2,1,0", "--no-timings", "--format", "text",
    )
    assert code == 0
    assert "CERTIFIED_YES" in out


def assert_input_error(code, out, err):
    assert code == 3
    assert out == ""
    assert "Traceback" not in err
    assert "error" in json.loads(err)


def test_detrep_build_with_e_on_the_hypersurface_exit_3(capsys):
    # f(e) = 0: no pencil is definite at e
    code, out, err = run(
        capsys, "detrep-build", "--poly", "x1*x2 + x1*x3 + x2*x3", "--vars", "x1,x2,x3",
        "--dvars", "x1,x2", "--e", "1,0,0", "--no-timings",
    )
    assert_input_error(code, out, err)
    assert "f(e) = 0" in json.loads(err)["error"]


def test_detrep_build_of_the_zero_polynomial_exit_3(capsys):
    code, out, err = run(
        capsys, "detrep-build", "--poly", "0", "--vars", "x,y,z", "--dvars", "x",
        "--e", "1,1,1", "--no-timings",
    )
    assert_input_error(code, out, err)
    assert "zero polynomial" in json.loads(err)["error"]


def test_malformed_rep_exit_3(tmp_path, capsys):
    poly = ["--poly", "x1*x2", "--vars", "x1,x2", "--no-timings"]
    missing_key = json.dumps({"matrices": [[["1", "0"], ["0", "0"]], [["0", "0"], ["0", "1"]]]})
    for rep in (missing_key, "[1, 2]", json.dumps({"matrices": 5, "e": ["1", "1"], "gamma": "1"})):
        assert_input_error(*run(capsys, "detrep-verify", *poly, "--rep", rep))
    # floats, non-finite ones included, and bools have no exact rational value
    for gamma in ("1e400", "Infinity", "-Infinity", "NaN", "true", "0.5"):
        rep = '{"matrices": [[[1, 0], [0, 0]], [[0, 0], [0, 1]]], "e": [1, 1], "gamma": %s}' % gamma
        assert_input_error(*run(capsys, "detrep-verify", *poly, "--rep", rep))
    path = tmp_path / "rep.json"
    path.write_text(missing_key)
    assert_input_error(*run(capsys, "detrep-verify", *poly, "--rep", f"@{path}"))
    # a string where an array belongs is not split into digit rationals
    as_strings = {"matrices": [["10", "00"], ["00", "01"]], "e": "11", "gamma": 1}
    assert_input_error(*run(capsys, "detrep-verify", *poly, "--rep", json.dumps(as_strings)))
    # a pencil with no matrices, or with 0 x 0 ones, has no size
    empty = ["--poly", "1", "--vars", "", "--no-timings", "--rep", '{"matrices": [], "e": [], "gamma": 1}']
    assert_input_error(*run(capsys, "detrep-verify", *empty))
    zero_by_zero = {"matrices": [[], []], "e": [1, 1], "gamma": 1}
    assert_input_error(*run(capsys, "detrep-verify", *poly, "--rep", json.dumps(zero_by_zero)))


def test_zero_denominator_in_vector_exit_3(capsys):
    lorentz = ["--poly", "x^2-y^2-z^2", "--vars", "x,y,z", "--no-timings"]
    assert_input_error(*run(capsys, "cone-member", *lorentz, "--e", "1,0,0", "--a", "1/0,1,0"))
    assert_input_error(*run(capsys, "check-hyperbolic", *lorentz, "--e", "1/0,1,0"))
    assert_input_error(*run(capsys, "check-hyperbolic", *lorentz, "--e", "1,0,-3/0"))


def test_sampling_and_budget_bounds_exit_3(capsys):
    lorentz = ["--poly", "x^2-y^2-z^2", "--vars", "x,y,z", "--e", "1,0,0", "--no-timings"]
    assert_input_error(*run(capsys, "check-hyperbolic", *lorentz, "--trials", "0"))
    assert_input_error(*run(capsys, "check-hyperbolic", *lorentz, "--trials", "-3"))
    assert_input_error(*run(capsys, "check-hyperbolic", *lorentz, "--trials", "many"))
    assert_input_error(*run(capsys, "sos-certify", *lorentz, "--sos-budget", "-1"))
    assert_input_error(*run(capsys, "interlaces", *lorentz, "--g", "x", "--sos-budget", "-2"))
    code, _, _ = run(capsys, "sos-certify", "--poly", "x^2 + y^2", "--vars", "x,y",
                     "--sos-budget", "0", "--no-timings")
    assert code == 0
    code, _, _ = run(capsys, "check-hyperbolic", *lorentz, "--trials", "1")
    assert code == 0
    assert_input_error(*run(capsys, "check-hyperbolic", *lorentz, "--bound", "-1"))
    code, _, _ = run(capsys, "check-hyperbolic", *lorentz, "--bound", "1")
    assert code == 0


def test_sampling_options_only_where_sampling_happens(capsys):
    square = ["--poly", "x^2 + y^2", "--vars", "x,y", "--sos-budget", "0", "--no-timings"]
    lorentz = ["--poly", "x^2-y^2-z^2", "--vars", "x,y,z", "--e", "1,0,0", "--no-timings"]
    for option in ("--seed", "--trials", "--bound"):
        assert_input_error(*run(capsys, "sos-certify", *square, option, "7"))
        assert_input_error(*run(capsys, "sos-cone-member", *lorentz, "--a", "2,1,0", option, "7"))
        assert_input_error(*run(capsys, "vamos-repro", option, "7"))
    sampling = ["--seed", "7", "--trials", "4", "--bound", "3"]
    for argv in (["check-hyperbolic", *lorentz], ["interlaces", *lorentz, "--g", "x"],
                 ["stable-check", "--poly", "x*y + x*z + y*z", "--vars", "x,y,z", "--no-timings"]):
        code, _, _ = run(capsys, *argv, *sampling)
        assert code == 0


def test_zero_sampling_bound_exits_3_without_hanging():
    # a zero bound can only draw the zero vector, which the sampler rejects, so
    # accepting it loops forever: run in a child process with a timeout
    import hypersos

    src = os.path.dirname(os.path.dirname(os.path.abspath(hypersos.__file__)))
    argv = ["check-hyperbolic", "--poly", "x^2-y^2-z^2", "--vars", "x,y,z", "--e", "1,0,0",
            "--bound", "0", "--no-timings"]
    proc = subprocess.run([sys.executable, "-m", "hypersos.cli", *argv], capture_output=True,
                          text=True, timeout=60, env=dict(os.environ, PYTHONPATH=src))
    assert_input_error(proc.returncode, proc.stdout, proc.stderr)


def test_huge_trial_count_refutes_on_the_first_bad_line(capsys):
    # the sampler draws one vector at a time, so 10^8 trials refute x^2 + y^2
    # on the line that 64 trials find, at once; a sampler that built every
    # vector first would exhaust memory, so the child runs under an
    # address-space limit and a timeout
    import hypersos

    argv = ["check-hyperbolic", "--poly", "x^2+y^2", "--vars", "x,y", "--e", "1,0", "--no-timings"]
    code, out, _ = run(capsys, *argv, "--trials", "64")
    assert code == 1
    witness = json.loads(out)["verdict"]["witness"]
    assert witness == {"a": ["10/1", "-7/1"]}
    src = os.path.dirname(os.path.dirname(os.path.abspath(hypersos.__file__)))
    child = (
        "import resource, sys, time\n"
        "resource.setrlimit(resource.RLIMIT_AS, (800 << 20, 800 << 20))\n"
        "from hypersos.cli import main\n"
        "start = time.perf_counter()\n"
        "code = main(sys.argv[1:])\n"
        "print(time.perf_counter() - start, file=sys.stderr)\n"
        "sys.exit(code)\n"
    )
    proc = subprocess.run([sys.executable, "-c", child, *argv, "--trials", str(10**8)], capture_output=True,
                          text=True, timeout=60, env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 1, proc.stderr[-2000:]
    assert json.loads(proc.stdout)["verdict"]["witness"] == witness
    assert float(proc.stderr.split()[-1]) < 0.5


def test_parser_built_once_and_reused_without_leaking_state(capsys, monkeypatch):
    import hypersos.cli as cli

    calls = [
        ["gen", "lorentz", "--n", "3", "--no-timings"],
        ["sos-certify", "--poly", "x^2 + y^2", "--vars", "x,y", "--sos-budget", "0",
         "--no-timings", "--format", "text"],
        ["cone-member", "--poly", "x^2-y^2-z^2", "--vars", "x,y,z", "--e", "1,0,0",
         "--a", "1,2,0", "--closure", "--no-timings"],
        ["delta", "--poly", "x^2-y^2-z^2", "--vars", "x,y,z", "--e", "1,0,0", "--a", "2,1,0",
         "--no-timings"],
        ["sos-certify", "--poly", "x^2 + y^2", "--vars", "x,y", "--tolerance", "nan"],
        ["gen", "elementary-symmetric", "--n", "4", "--d", "2", "--no-timings"],
    ]
    fresh = []
    for argv in calls:  # each call on a newly built parser
        cli._parser.cache_clear()
        fresh.append(run(capsys, *argv))
    built = []
    original = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or original())
    cli._parser.cache_clear()
    for argv, expected in [*zip(calls, fresh), *reversed(list(zip(calls, fresh)))]:
        assert run(capsys, *argv) == expected
    assert len(built) == 1
    assert [code for code, _, _ in fresh] == [0, 0, 1, 0, 3, 0]


# the commands that read each input option; every other command rejects it
OPTION_COMMANDS = {
    "--e": {"check-hyperbolic", "cone-member", "interlaces", "delta", "sos-cone-member", "detrep-build"},
    "--a": {"cone-member", "delta", "sos-cone-member"},
    "--sos-budget": {"interlaces", "sos-certify", "sos-cone-member", "stable-check"},
    "--tolerance": set(),
    "--cert-out": {"interlaces", "sos-certify", "sos-cone-member", "detrep-build", "vamos-repro"},
}


def test_input_options_only_where_they_are_read(tmp_path, capsys):
    import hypersos.cli as cli

    values = {"--e": "1,0,0", "--a": "2,1,0", "--sos-budget": "1", "--tolerance": "1e-6",
              "--cert-out": str(tmp_path / "out.json")}
    commands = [["gen", "lorentz", "--n", "3"], ["vamos-repro"]]
    commands += [[name, "--poly", "x^2-y^2-z^2", "--vars", "x,y,z"] for name in (
        "check-hyperbolic", "cone-member", "interlaces", "delta", "sos-certify", "sos-cone-member",
        "detrep-build", "detrep-verify", "stable-check",
    )]
    for argv in commands:
        for option, readers in OPTION_COMMANDS.items():
            if argv[0] in readers:
                cli._parser().parse_args([*argv, option, values[option]])
            else:
                assert_input_error(*run(capsys, *argv, option, values[option], "--no-timings"))
    assert_input_error(*run(capsys, "gen", "lorentz", "--n", "3", "--sos-budget", "5"))
    assert_input_error(*run(capsys, "cone-member", "--poly", "x^2-y^2-z^2", "--vars", "x,y,z",
                            "--e", "1,0,0", "--a", "2,1,0", "--cert-out", values["--cert-out"]))
    assert not (tmp_path / "out.json").exists()


def test_out_of_memory_exits_3_without_traceback(capsys, monkeypatch):
    import hypersos.corpus as corpus

    def exhausted(n):
        raise MemoryError

    monkeypatch.setattr(corpus, "gen_product", exhausted)
    assert_input_error(*run(capsys, "gen", "product", "--n", "100000000000", "--no-timings"))
