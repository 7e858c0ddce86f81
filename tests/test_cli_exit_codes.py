"""Generated flag sets exit with the documented code.

``sparsemix`` exits 0 when a command succeeds and 2 on invalid input,
argparse's own usage errors (``SystemExit(2)``) included.  Each test
draws a flag set for one subcommand that mixes valid and invalid values,
runs ``cli.main`` in-process on tiny fits (one replicate, one restart, a
few cycles) and checks the code against the one the flag rules give.
"""

import contextlib
import io
import itertools
import json

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sparsemix import cli
from sparsemix.simulate import ScenarioConfig, gen_replicate, write_sample

SETTINGS = settings(max_examples=40, deadline=None,
                    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
_fresh = itertools.count()


def exit_code(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return cli.main(argv)
        except SystemExit as exc:
            return exc.code


def flag(name, valid, invalid, omitted=True):
    """The valid and the invalid argv texts of one flag.

    ``omitted`` says whether leaving the flag out is valid (True), invalid
    (False, a required flag) or not drawn (None, a flag always given).
    """
    def texts(values):
        return [f"{name} {value}" for value in values]

    return texts(valid) + [""] * (omitted is True), texts(invalid) + [""] * (omitted is False)


def draw_argv(data, *flags):
    """argv tokens for ``flags``, with up to two of them invalid, and whether all are valid.

    Each flag is a pair of lists of argv texts, valid and invalid, as :func:`flag` gives.
    """
    broken = data.draw(st.sets(st.sampled_from(range(len(flags))), max_size=2))
    texts = [data.draw(st.sampled_from(flags[i][i in broken])) for i in range(len(flags))]
    return " ".join(texts).split(), not broken


HYPERPARAM_FLAGS = (
    flag("--lambda", ["0", "0.5"], ["-1", "nan", "inf", "x"]),
    flag("--max-cycles", ["1", "3"], ["0", "1.5"], omitted=None),
    flag("--variance-floor", ["1e-3"], ["0", "-1", "inf"]),
    flag("--restarts", ["1"], ["0", "x"], omitted=None),
    flag("--tol", ["1e-3", "1e-8"], ["0", "-1e-3", "nan"]),
)
SEED = flag("--seed", ["0", "7"], ["-1", "x"])
# the components, weights and variances of a scenario, which must agree in number
MIXTURE = (
    ["", "--components 2 --weights 0.5 0.5 --variances 1 2", "--components 3 --weights 0.2 0.3 0.5"],
    ["--components 2", "--components 0", "--weights 0.6 0.6 0.1", "--variances 1 -2 3"],
)


def expected(valid: bool) -> int:
    return cli.EXIT_OK if valid else cli.EXIT_USAGE


class TestExitCodes:
    @SETTINGS
    @given(data=st.data())
    def test_fit(self, data, tmp_path):
        sample = tmp_path / "sample.txt"
        if not sample.exists():
            write_sample(sample, gen_replicate(ScenarioConfig(dim=2, dilation=30.0), 0))
            (tmp_path / "empty.txt").write_text("")
        tokens, valid = draw_argv(
            data, ([str(sample)], [str(tmp_path / "empty.txt"), str(tmp_path / "missing.txt"), ""]),
            *HYPERPARAM_FLAGS, SEED,
            flag("-K", ["1", "3"], ["0", "11"], omitted=False),  # the sample has 10 points
            flag("--method", ["sparse", "baseline"], ["kmeans"]),
        )
        out = tmp_path / f"report{next(_fresh)}.json"
        code = exit_code(["fit", "--out", str(out), *tokens])
        assert code == expected(valid)
        assert out.exists() == (code == 0)

    @SETTINGS
    @given(data=st.data())
    def test_simulate(self, data, tmp_path):
        tokens, valid = draw_argv(
            data,
            flag("--dim", ["1", "2"], ["0", "x"], omitted=False),
            flag("--dilation", ["30", "0.5"], ["0", "-3", "nan", "inf"], omitted=False),
            flag("--points", ["10", "1"], ["0"]),
            flag("--replicates", ["1"], ["0"], omitted=None),
            SEED, MIXTURE,
        )
        out = tmp_path / f"sim{next(_fresh)}"
        code = exit_code(["simulate", "--out", str(out), *tokens])
        assert code == expected(valid)
        assert out.exists() == (code == 0)

    @SETTINGS
    @given(data=st.data())
    def test_sweep(self, data, tmp_path):
        tokens, valid = draw_argv(
            data, *HYPERPARAM_FLAGS, SEED,
            flag("--dims", ["2", "1"], ["0", "2 2"]),
            flag("--dilations", ["10"], ["0", "nan", "10 10"]),
            flag("--methods", ["sparse", "baseline"], ["kmeans"], omitted=None),
            flag("--replicates", ["1"], ["0"], omitted=None),
            flag("--points", ["10"], ["2"]),  # at least the 3 default components
            flag("--jobs", ["1"], ["0"]),
        )
        # a flag overrides the config file, so its bool tol, its dims of the wrong
        # type and its lam of the wrong type are read only without their flag
        config, config_ok = data.draw(st.sampled_from([
            (None, True), ({"dims": [2]}, True), ({"dialations": [10]}, False),
            ({"hyperparams": {"tol": True}}, "--tol" in tokens), ({"dims": 5}, "--dims" in tokens),
            ({"hyperparams": {"lam": "x"}}, "--lambda" in tokens), ([], False), (5, False)]))
        if config is not None:
            cfg_path = tmp_path / f"config{next(_fresh)}.json"
            cfg_path.write_text(json.dumps(config))
            tokens += ["--config", str(cfg_path)]
        out = tmp_path / f"sweep{next(_fresh)}"
        code = exit_code(["sweep", "--out", str(out), *tokens])
        assert code == expected(valid and config_ok)
        assert (out / "manifest.json").exists() == (code == 0)
