"""Problem-file parsing, the runner's output contract, and exit codes."""

import io
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import icsp
from icsp.cli import ProblemError, format_trace_entry, main, parse, run

GOLDEN_PROBLEM = """\
iset dx open {}
iset dy open {}
iset dz open {}
var x :: dx
var y :: dy
var z :: dz
isetc intersection dx dy dz
fdc gt z x
source dx script [1]
source dz script [2]
"""

GOLDEN_TRACE = """\
ACQUIRE dx -> 1
INSERT dx 1
CANDIDATE x 1
OBSERVE x 1
ACQUIRE dz -> 2
INSERT dz 2
INSERT dx 2
INSERT dy 2
CANDIDATE z 2
CANDIDATE x 2
CANDIDATE y 2
OBSERVE z 2
RELY (x,1) (z,2) gt
RELY (z,2) (x,1) gt
PRESENT x 1
PRESENT z 2
OBSERVE x 2
ACQUIRE dz -> none
CLOSE dz
REMOVE x 2
OBSERVE y 2
PRESENT y 2
RESULT consistent
DOMAIN x present=[1] removed=[2]
DOMAIN y present=[2] removed=[]
DOMAIN z present=[2] removed=[]
"""

# strict per-line validators for the emitted format
_ELEM = r"-?[0-9]+|[a-z][a-z0-9_]*"
_NAME = r"[a-z][a-z0-9_]*"
TRACE_LINE_RES = [
    re.compile(rf"(INSERT|CANDIDATE|OBSERVE|PRESENT|REMOVE) {_NAME} ({_ELEM})\Z"),
    re.compile(rf"CLOSE {_NAME}\Z"),
    re.compile(rf"RELY \({_NAME},({_ELEM})\) \({_NAME},({_ELEM})\) {_NAME}\Z"),
    re.compile(rf"ACQUIRE {_NAME} -> (({_ELEM})|none)\Z"),
    re.compile(r"RESULT (consistent|inconsistent)\Z"),
    re.compile(rf"DOMAIN {_NAME} present=\[(({_ELEM})(,({_ELEM}))*)?\] "
               rf"removed=\[(({_ELEM})(,({_ELEM}))*)?\]\Z"),
]


def run_text(text, **kwargs):
    out = io.StringIO()
    code = run(parse(text), out=out, **kwargs)
    return code, out.getvalue()


# ----------------------------------------------------------------------
# parsing

def test_parse_minimal_iset():
    problem = parse("iset dx open {}\n")
    assert problem.directives == [("iset", "dx", True, [])]


def test_parse_golden_problem():
    problem = parse(GOLDEN_PROBLEM)
    tags = [d[0] for d in problem.directives]
    assert tags == ["iset"] * 3 + ["var"] * 3 + ["isetc", "fdc", "source", "source"]
    assert [d[1] for d in problem.directives if d[0] == "var"] == ["x", "y", "z"]


def test_parse_elements_and_comments():
    problem = parse("# leading comment\niset s closed {1, -2, blue}  # trailing\n")
    assert problem.directives == [("iset", "s", False, [1, -2, "blue"])]


def test_parse_undefined_var_in_fdc():
    with pytest.raises(ProblemError, match=r"line 2: undefined var 'a'"):
        parse("iset d open {}\nfdc lt a b\n")


def test_parse_duplicate_names_rejected():
    with pytest.raises(ProblemError, match="duplicate iset"):
        parse("iset d open {}\niset d open {}\n")
    with pytest.raises(ProblemError, match="duplicate var"):
        parse("iset d open {}\nvar v :: d\nvar v :: d\n")


def test_parse_bad_directive_reports_line():
    with pytest.raises(ProblemError, match="line 3"):
        parse("iset d open {}\nvar v :: d\nfrobnicate v\n")


def test_parse_arity_and_unknown_cname():
    with pytest.raises(ProblemError, match="unknown constraint"):
        parse("iset d open {}\nvar v :: d\nfdc frob v v\n")
    with pytest.raises(ProblemError, match="takes 2"):
        parse("iset d open {}\nvar v :: d\nfdc lt v\n")


@pytest.mark.parametrize("cname, nargs, message", [
    ("lt", 3, "lt takes 2 arguments"),
    ("sum_eq_const:5", 0, "sum_eq_const:5 takes 1 or more arguments"),
])
def test_posting_and_parsing_reject_a_bad_arity_with_one_message(cname, nargs, message):
    eng = icsp.Engine()
    d = eng.new_iset([1])
    with pytest.raises(ValueError) as posted:
        eng.post_fd_constraint(cname, [eng.new_fd_variable(d) for _ in range(nargs)])
    names = [f"v{i}" for i in range(nargs)]
    text = ("iset d open {1}\n" + "".join(f"var {n} :: d\n" for n in names)
            + f"fdc {cname} {' '.join(names)}\n")
    with pytest.raises(ProblemError) as parsed:
        parse(text)
    assert str(posted.value) == message
    assert str(parsed.value) == f"line {nargs + 2}: {message}"


def test_parse_sources_and_option():
    problem = parse(
        "iset a open {}\niset b open {}\niset c open {}\n"
        "source a script [1,2]\nsource b range 1..3\nsource c interactive\n"
        "option labeling on\n"
    )
    kinds = [(d[1], d[2]) for d in problem.directives if d[0] == "source"]
    assert kinds == [("a", "script"), ("b", "range"), ("c", "interactive")]
    assert problem.labeling is True


def test_parse_duplicate_source_rejected():
    with pytest.raises(ProblemError, match="already has a source"):
        parse("iset a open {}\nsource a script [1]\nsource a script [2]\n")


def test_parse_isetc_forms():
    problem = parse(
        "iset a open {}\niset b open {}\niset c open {}\n"
        "isetc member 5 a\nisetc union a b c\nisetc inclusion a b\n"
    )
    isetcs = [d[1:] for d in problem.directives if d[0] == "isetc"]
    assert isetcs == [("member", 5, "a"), ("union", "a", "b", "c"), ("inclusion", "a", "b")]


# ----------------------------------------------------------------------
# running

def test_golden_trace_is_byte_exact():
    code, text = run_text(GOLDEN_PROBLEM, trace=True)
    assert code == 0
    assert text == GOLDEN_TRACE


def test_trace_off_emits_only_result_and_domains():
    code, text = run_text(GOLDEN_PROBLEM)
    assert code == 0
    assert text == "".join(
        line + "\n" for line in GOLDEN_TRACE.splitlines()
        if line.startswith(("RESULT", "DOMAIN"))
    )


def test_every_emitted_line_matches_the_strict_format():
    _code, text = run_text(GOLDEN_PROBLEM, trace=True)
    for line in text.splitlines():
        assert any(r.fullmatch(line) for r in TRACE_LINE_RES), line


def test_runs_are_deterministic():
    first = run_text(GOLDEN_PROBLEM, trace=True)
    second = run_text(GOLDEN_PROBLEM, trace=True)
    assert first == second


def test_empty_problem_is_consistent():
    code, text = run_text("")
    assert code == 0
    assert text == "RESULT consistent\n"


def test_inconsistent_instance_exits_1():
    code, text = run_text(
        "iset dx closed {2}\niset dz closed {2}\n"
        "var x :: dx\nvar z :: dz\nfdc gt z x\n"
    )
    assert code == 1
    assert text.splitlines()[0] == "RESULT inconsistent"


def test_contradiction_at_posting_is_a_verdict(tmp_path, capsys):
    # Posting a ⊆ b finds that 2 cannot enter the closed b. The build goes
    # on to declare x, and the run reports the kept contradiction: no
    # traceback, and labeling is not attempted over it.
    path = tmp_path / "incl.icsp"
    path.write_text("iset a closed {1,2}\niset b closed {1}\n"
                    "isetc inclusion a b\nvar x :: a\noption labeling on\n",
                    encoding="utf-8")
    assert main([str(path), "--trace"]) == 1
    out = capsys.readouterr()
    assert out.err == ""
    assert out.out == ("INSERT a 1\nINSERT a 2\nCLOSE a\nINSERT b 1\nCLOSE b\n"
                       "CANDIDATE x 1\nCANDIDATE x 2\n"
                       "RESULT inconsistent\nDOMAIN x present=[] removed=[]\n")


def test_labeling_option_binds_every_variable():
    code, text = run_text(
        "iset d closed {3,4}\nvar v :: d\nvar u :: d\n"
        "fdc ne v u\noption labeling on\n"
    )
    assert code == 0
    assert "DOMAIN v present=[3]" in text
    assert "DOMAIN u present=[4]" in text


def test_label_flag_overrides_file_option(tmp_path, capsys):
    path = tmp_path / "unlabelled.icsp"
    path.write_text("iset d closed {3,4}\nvar v :: d\noption labeling off\n",
                    encoding="utf-8")
    assert main([str(path)]) == 0
    assert "present=[3,4]" in capsys.readouterr().out
    assert main([str(path), "--label"]) == 0
    assert "present=[3]" in capsys.readouterr().out


def test_an_unknown_trace_tag_is_rejected():
    with pytest.raises(ValueError, match="unknown trace entry"):
        format_trace_entry(("BIND", "x", 1))


def test_sum_constraint_via_cli():
    code, text = run_text(
        "iset d closed {1,2,3}\nvar v :: d\nvar u :: d\nfdc sum_eq_const:4 v u\n"
    )
    assert code == 0
    assert "DOMAIN v present=[1,2,3]" in text


def test_range_source_via_cli():
    code, text = run_text(
        "iset d open {}\nvar v :: d\nfdc ge v v\nsource d range 5..9\n"
    )
    assert code == 0
    assert "DOMAIN v present=[5]" in text  # lazy: one element suffices


# ----------------------------------------------------------------------
# the executable surface

def test_main_parse_error_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.icsp"
    bad.write_text("iset ???\n", encoding="utf-8")
    assert main([str(bad)]) == 2
    assert "line 1" in capsys.readouterr().err


def test_main_missing_file_exit_2(capsys):
    assert main(["/no/such/file.icsp"]) == 2
    assert "error" in capsys.readouterr().err


def test_main_a_file_that_is_not_utf8_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.icsp"
    bad.write_bytes(b"iset d open {}\n\xff\xfe\n")
    assert main([str(bad)]) == 2
    assert capsys.readouterr().err == f"error: {bad}: line 2: not UTF-8 text\n"


def test_main_runs_golden(tmp_path, capsys):
    path = tmp_path / "golden.icsp"
    path.write_text(GOLDEN_PROBLEM, encoding="utf-8")
    assert main([str(path), "--trace"]) == 0
    assert capsys.readouterr().out == GOLDEN_TRACE


def test_module_entry_point_interactive_stdin(tmp_path):
    path = tmp_path / "ask.icsp"
    path.write_text(
        "iset d open {}\nvar v :: d\nfdc eq v v\nsource d interactive\n",
        encoding="utf-8",
    )
    # the child imports the same icsp as this process, however it was found
    src = str(Path(icsp.__file__).resolve().parent.parent)
    path_var = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "icsp", str(path)],
        input="7\n", capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=path_var),
    )
    assert proc.returncode == 0
    # the prompt goes to standard error, so standard output holds only the result
    assert proc.stdout == "RESULT consistent\nDOMAIN v present=[7] removed=[]\n"
    assert proc.stderr == "acquire d for v? "


# ----------------------------------------------------------------------
# every parse error, with its line

_DECLS = "iset a open {}\niset b open {}\niset c open {}\nvar v :: a\n"

PARSE_ERRORS = {
    "bad element in an iset": ("iset s open {1, Bad}", "bad element 'Bad'"),
    "non-ASCII digit in an iset": ("iset s open {\u0663}", "bad element '\u0663'"),
    "iset syntax": ("iset s maybe {}", "expected: iset <name> open|closed {e1,e2,...}"),
    "duplicate iset": ("iset a closed {}", "duplicate iset 'a'"),
    "var syntax": ("var w : a", "expected: var <name> :: <iset>"),
    "duplicate var": ("var v :: b", "duplicate var 'v'"),
    "var over an undefined iset": ("var w :: d", "undefined iset 'd'"),
    "fdc without a name": ("fdc", "expected: fdc <cname> <var>..."),
    "unknown fdc": ("fdc frob v", "unknown constraint name 'frob'"),
    "fdc over an undefined var": ("fdc eq v w", "undefined var 'w'"),
    "fdc with a bad constant": ("fdc sum_eq_const:x v", "bad constant in 'sum_eq_const:x'"),
    "fdc with an underscored constant": ("fdc sum_eq_const:1_0 v",
                                         "bad constant in 'sum_eq_const:1_0'"),
    "fdc with a plus-signed constant": ("fdc sum_eq_const:+1 v",
                                        "bad constant in 'sum_eq_const:+1'"),
    "member arity": ("isetc member 5", "expected: isetc member <e> <iset>"),
    "member element": ("isetc member Five a", "bad element 'Five'"),
    "member element with a comma": ("isetc member 1,2 a", "bad element '1,2'"),
    "member element in full-width digits": ("isetc member \uff11 a", "bad element '\uff11'"),
    "member over an undefined iset": ("isetc member 5 d", "undefined iset 'd'"),
    "union arity": ("isetc union a b", "isetc union takes 3 iset names"),
    "intersection arity": ("isetc intersection a b c a",
                           "isetc intersection takes 3 iset names"),
    "difference arity": ("isetc difference a", "isetc difference takes 3 iset names"),
    "inclusion arity": ("isetc inclusion a b c", "isetc inclusion takes 2 iset names"),
    "isetc over an undefined iset": ("isetc union a b d", "undefined iset 'd'"),
    "inclusion over an undefined iset": ("isetc inclusion d a", "undefined iset 'd'"),
    "unknown isetc": ("isetc subset a b", "unknown iset constraint 'subset'"),
    "isetc without a kind": ("isetc", "expected: isetc member|union|intersection|"
                                      "difference|inclusion ..."),
    "source syntax": ("source a", "expected: source <iset> script|range|interactive ..."),
    "source of an undefined iset": ("source d range 1..2", "undefined iset 'd'"),
    "second source": ("source a range 1..2\nsource a interactive",
                      "'a' already has a source"),
    "script syntax": ("source a script 1,2", "expected: source <iset> script [e1,e2,...]"),
    "script element": ("source a script [1,X]", "bad element 'X'"),
    "range syntax": ("source a range 1...2", "expected: source <iset> range <lo>..<hi>"),
    "range bound in non-ASCII digits": ("source a range \u0661..2",
                                        "expected: source <iset> range <lo>..<hi>"),
    "interactive syntax": ("source a interactive now", "expected: source <iset> interactive"),
    "unknown source kind": ("source a oracle", "unknown source kind 'oracle'"),
    "option syntax": ("option labeling maybe", "expected: option labeling on|off"),
    "unknown option": ("option tracing on", "expected: option labeling on|off"),
    "unknown directive": ("frobnicate v", "unknown directive 'frobnicate'"),
}


@pytest.mark.parametrize("tail, message", PARSE_ERRORS.values(), ids=PARSE_ERRORS.keys())
def test_every_parse_error_names_its_line(tail, message):
    text = _DECLS + tail + "\n"
    with pytest.raises(ProblemError) as raised:
        parse(text)
    assert str(raised.value) == f"line {text.count(chr(10))}: {message}"


def test_member_and_inclusion_directives_are_built_and_posted():
    code, text = run_text(
        "iset a open {}\niset b closed {5, 6}\nvar v :: a\n"
        "isetc member 5 a\nisetc inclusion a b\n"
    )
    assert code == 0
    assert text == "RESULT consistent\nDOMAIN v present=[5] removed=[]\n"


def test_an_interactive_source_is_built_over_standard_input(monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", io.StringIO("7\nnone\n"))
    code, text = run_text("iset d open {}\nvar v :: d\nvar w :: d\nfdc ne v w\n"
                          "source d interactive\n")
    assert code == 1
    assert text == ("RESULT inconsistent\nDOMAIN v present=[] removed=[7]\n"
                    "DOMAIN w present=[] removed=[7]\n")
    assert capsys.readouterr().err == "acquire d for v? acquire d for w? "


def test_main_reports_a_repeating_source_with_exit_2(tmp_path, capsys):
    path = tmp_path / "repeat.icsp"
    path.write_text("iset d open {}\nvar v :: d\nvar w :: d\nfdc lt v w\n"
                    "source d script [1,1]\n", encoding="utf-8")
    assert main([str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: source for d repeated element 1\n"
