"""Property tests of the front end: the config parser and the `point` command.

Both run in process; output is captured with redirect_stdout/redirect_stderr
because hypothesis reruns a test body many times inside one fixture scope.
"""

import contextlib
import io

from hypothesis import example, given, settings
from hypothesis import strategies as st

from ottoqft.cli import main
from ottoqft.config import _ALL_KEYS, MODES, ConfigError, parse_config

_KEYS = st.sampled_from(sorted(_ALL_KEYS)) | st.text(max_size=8)
_VALUES = (
    st.sampled_from(MODES)
    | st.floats().map(repr)
    | st.integers().map(str)
    | st.text(max_size=10)
)
_PAIRS = st.tuples(_KEYS, _VALUES)
_LINES = _PAIRS.map(lambda kv: f"{kv[0]} = {kv[1]}") | st.text(max_size=20)
_SETS = _PAIRS.map(lambda kv: f"{kv[0]}={kv[1]}") | st.text(max_size=15)


@settings(deadline=None)
@given(lines=st.lists(_LINES, max_size=12), sets=st.lists(_SETS, max_size=6))
def test_parse_config_raises_only_config_error(lines, sets):
    try:
        parse_config("\n".join(lines), sets)
    except ConfigError:
        pass


_GAPS = st.floats(min_value=0.0, max_value=1e308, exclude_min=True)
_LAMBDAS = st.floats(min_value=0.0, max_value=1e4)
_TAUS = st.floats(min_value=-1e3, max_value=1e3)


@settings(deadline=None)
# a gap ratio beyond the float range; a phase gap2 * tau2 beyond it
@example(omega1=1.401298464324817e-45, omega2=2.5191046292098296e+263, tau1=0.0, tau2=1.0,
         lambda1=0.0, lambda2=0.0, initial_p=1.175494351e-38)
@example(omega1=1.0, omega2=1e308, tau1=0.0, tau2=1e3, lambda1=1.0, lambda2=1.0, initial_p=None)
@given(omega1=_GAPS, omega2=_GAPS, tau1=_TAUS, tau2=_TAUS, lambda1=_LAMBDAS,
       lambda2=_LAMBDAS, initial_p=st.none() | st.floats(min_value=0.0, max_value=1.0))
def test_point_exits_cleanly_over_the_valid_box(omega1, omega2, tau1, tau2, lambda1,
                                                lambda2, initial_p):
    tau1, tau2 = sorted((tau1, tau2))
    if tau1 == tau2:
        tau2 += 1.0
    params = dict(omega1=omega1, omega2=omega2, tau1=tau1, tau2=tau2,
                  lambda1=lambda1, lambda2=lambda2)
    if initial_p is not None:
        params["initial_p"] = initial_p
    argv = ["point"]
    for key, value in params.items():
        argv += ["--set", f"{key}={value!r}"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1)
    if code == 0:
        assert out.getvalue().startswith("theta = ") and not err.getvalue()
    else:
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
    text = out.getvalue().lower()
    assert "nan" not in text and "inf" not in text
