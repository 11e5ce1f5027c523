"""Property test of the CLI's exit-code contract.

Whatever the argv and manifest, `main` returns 0 (success), 2 (solver or i/o
failure) or 3 (configuration error), prints at most one `expsav:` line on
stderr, says why on stderr whenever it fails, and never raises. Draws follow
README's grammar: the three subcommands, the run-setting flags, a manifest
for `run --config`, and the bad values and malformed lines a user can type.
Every run is kept to a few steps on 8 or 16 nodes per axis.
"""

import contextlib
import io
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from expsav.cli import main

PROBLEMS = ("sg1d", "sg2d_ring", "kg2d_cubic", "nls1d_soliton", "nls2d_planewave")
BAD = ("", "x", "-1", "0", "nan", "inf", "-inf")
# run setting -> (values that keep a run tiny, bad values, drawn for one key at most);
# an output directory under a file and a one-iteration cap make solver failures
VALUES = {
    "problem": (PROBLEMS, ("bogus", "", None)),  # None: no problem given
    "scheme": (("esavs", "eavfs"), ("rk4", "")),
    "n": (("8", "16"), ("7", "16.0", "1e3", *BAD)),
    "tau": (("0.05", "0.1"), BAD),
    "t_end": (("0", "0.1", "0.2"), ("0.3", *BAD)),
    "c0": (("0", "0.5", "1"), BAD),
    "cadence": (("1", "2"), ("2.5", *BAD)),
    "snapshots": (("0", "0.1, 0.2"), ("0.5", "a,b", *BAD)),
    "fp_tol": (("1e-12",), BAD),
    "fp_max_iters": (("1", "50"), ("2.5", *BAD)),
    "out": (("{tmp}/out", "{tmp}/file/out"), ()),
}
# without the sizes a run falls back to catalog sizes, too large for a property test
REQUIRED = ("problem", "n", "tau", "t_end")
COMMON = ("problem", "n", "tau", "t_end", "c0", "out")
FLAGS = {"run": (*COMMON, "scheme", "cadence", "snapshots"),
         "converge": (*COMMON, "scheme"),
         "compare": (*COMMON, "cadence")}


@st.composite
def invocations(draw):
    """(argv, manifest text or None), with {tmp} standing for a scratch directory."""
    command = draw(st.sampled_from(("run",) * 3 + ("converge", "compare") * 2 + ("walk", None)))
    bad_key = draw(st.sampled_from((None,) * 6 + tuple(VALUES)))
    argv = [command] if command else []
    lines = []
    for key, (good, bad) in VALUES.items():
        choices = good + bad if key == bad_key else good
        where = ["manifest"] if command == "run" else []
        if key in FLAGS.get(command, COMMON):
            where += ["flag", "both"] if command == "run" else ["flag"]
        if key not in REQUIRED or not where:
            where += ["absent"] * (len(where) or 1)
        place = draw(st.sampled_from(where))
        if place in ("flag", "both") and (value := draw(st.sampled_from(choices))) is not None:
            argv += ["--" + key.replace("_", "-"), value]
        if place in ("manifest", "both") and (value := draw(st.sampled_from(choices))) is not None:
            lines.append(f"{key} = {value}")
    if command == "converge":
        argv += draw(st.sampled_from((["--levels", "2"], ["--levels", "2"], ["--levels", "1"],
                                      ["--levels", "x"], [])))
    # an unknown flag, a removed one, a flag without its value; an unknown key, a line
    # without '=', and a key set twice
    argv += draw(st.sampled_from(([],) * 6 + (["--bogus"], ["--h", "0.5"], ["--tau"])))
    lines += draw(st.sampled_from(([],) * 6 + (["bogus = 1"], ["tau 0.1"], lines[:1])))
    manifest = None
    if command == "run" and (lines or draw(st.booleans())):
        manifest = "\n".join(["# drawn", *lines, ""])
        argv += ["--config", "{tmp}/run.cfg"]
    return argv, manifest


@settings(derandomize=True, database=None, deadline=None, max_examples=200,
          suppress_health_check=[HealthCheck.too_slow])
@given(invocations())
def test_every_invocation_exits_0_2_or_3_with_at_most_one_message(invocation):
    argv, manifest = invocation
    with tempfile.TemporaryDirectory() as tmp:
        Path(tmp, "file").write_text("a file, not a directory\n")
        if manifest is not None:
            Path(tmp, "run.cfg").write_text(manifest.replace("{tmp}", tmp))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([arg.replace("{tmp}", tmp) for arg in argv])
    stderr = err.getvalue().splitlines()
    assert code in (0, 2, 3), (argv, manifest, code)
    assert sum(line.startswith("expsav:") for line in stderr) <= 1, stderr
    if code == 0:
        assert stderr == []
    else:
        assert stderr and stderr[-1].startswith("expsav"), stderr
