"""`cli.main` on generated config files: every input exits 0-3, none crashes.

The configs use the real sections and keys with a mix of plausible values
and malformed or extreme ones: NaN, +-inf, 1e308, negative numbers, huge
integers, non-ASCII text, missing sections and keys, duplicate keys and
unknown keys. Sizes are drawn either small or past a budget, which must
fail at once, so no example allocates much or runs long.
"""

import contextlib
import io
from datetime import timedelta

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from qdho import cli

#: Keys whose values are words; an extreme value goes to the numeric ones.
TEXT_KEYS = {"kind", "terms", "method"}
#: Values that parse as numbers but lie outside or at the edge of the domain.
EXTREME = ("1e308", "1e200", "nan", "inf", "-inf", "-1e308", "-1", "0",
           "99999999999999999999999")
#: Values that parse as nothing the key expects.
MALFORMED = ("", "é", "∞", "1,5", "10**9", "maybe")

QUANTUM = {
    "model": {
        "omega": ("0", "1.0", "6.283185307179586"),
        "mu": ("0", "1.0", "0.4"),
        "nu": ("0", "0.4", "1.5"),
        "theta": ("0", "0.3"),
    },
    "state": {},
    "truncation": {
        "support_max": ("1", "3", "0"),
        "guard": ("2", "0"),
    },
    "grid": {
        "t_start": ("0", "0.5"),
        "t_end": ("1.0", "3.0", "0", "1e6"),
        "num_points": ("3", "2", "1"),
    },
    "run": {
        "method": ("analytic", "expm", "rk4", "nu-zero"),
        "photon_levels": ("0", "4"),
        "steady_tol": ("1e-4",),
    },
    "tolerances": {
        "hermiticity_tol": ("1e-10",),
        "trace_tol": ("1e-8",),
        "positivity_tol": ("1e-9",),
        "oracle_tol": ("1e-7", "1e-2"),
    },
}

#: The [state] keys of each kind; a key of another kind is an unknown key.
STATES = {
    "fock": {"kind": ("fock",), "n": ("0", "1", "3")},
    "coherent": {"kind": ("coherent",), "re": ("0.5", "1.0"), "im": ("0", "-0.5")},
    "thermal": {"kind": ("thermal",), "n_bar": ("0.2", "1.0")},
    "mixture": {"kind": ("mixture",), "terms": ("0:0.25 3:0.75", "1:1")},
}

#: Sizes past MAX_DIM or MAX_GRID_POINTS.
OVER_BUDGET = {
    "support_max": ("300", "1000000000000"),
    "guard": ("500",),
    "num_points": ("100001", "1000000000"),
}

CLASSICAL = {
    "classical": {
        "omega": ("1.0", "2.0", "1e6"),
        "gamma": ("0", "0.1", "3.0"),
        "x0": ("1.0", "0"),
        "y0": ("0", "-2.0"),
    },
    "grid": QUANTUM["grid"],
}

VERBS = (["evolve"], ["evolve", "--check-truncation"], ["compare"], ["steady"], ["classical"])


#: Extreme values reach the numerics, so they come up three times as often.
MUTATIONS = ("extreme value",) * 3 + ("malformed value", "missing key", "missing section",
                                      "duplicate key", "unknown key", "past a budget")


@st.composite
def config_texts(draw, sections):
    """A config of plausible values with up to three mutations applied."""
    if "state" in sections:
        sections = {**sections, "state": STATES[draw(st.sampled_from(sorted(STATES)))]}
    entries = [
        (section, key, draw(st.sampled_from(good)))
        for section, keys in sections.items()
        for key, good in keys.items()
    ]
    dropped = set()
    for _ in range(draw(st.integers(0, 3))):
        mutation = draw(st.sampled_from(MUTATIONS))
        pool = entries
        if mutation == "extreme value":
            pool = [entry for entry in entries if entry[1] not in TEXT_KEYS]
        elif mutation == "past a budget":
            pool = [entry for entry in entries if entry[1] in OVER_BUDGET]
        if not pool:
            continue
        section, key, value = entry = pool[draw(st.integers(0, len(pool) - 1))]
        if mutation == "missing section":
            dropped.add(section)
        elif mutation == "unknown key":
            entries.append((section, draw(st.sampled_from(["colour", "méthode"])), value))
        elif mutation == "duplicate key":
            entries.append(entry)
        else:
            entries.remove(entry)
            if mutation == "extreme value":
                entries.append((section, key, draw(st.sampled_from(EXTREME))))
            elif mutation == "malformed value":
                entries.append((section, key, draw(st.sampled_from(MALFORMED))))
            elif mutation == "past a budget":
                entries.append((section, key, draw(st.sampled_from(OVER_BUDGET[key]))))
    lines = []
    for section in sections:
        if section not in dropped:
            lines.append(f"[{section}]")
            lines += [f"{k} = {v}" for s, k, v in entries if s == section]
    return "\n".join(lines) + "\n"


@st.composite
def invocations(draw):
    verb = draw(st.sampled_from(VERBS))
    # One time in ten the verb gets the other kind of config.
    classical = (verb[0] == "classical") != (draw(st.integers(0, 9)) == 7)
    return verb, draw(config_texts(CLASSICAL if classical else QUANTUM))


@pytest.fixture(scope="module")
def config_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "run.ini"


# A pinned seed is the one derandomize drew from this test's source, so
# editing the test keeps its draws.
@seed(22803133123631372849496919624555008668708217191498009578052331259593805015055962722495749371968365323227071778690150)
@settings(max_examples=600, derandomize=True, database=None, deadline=timedelta(seconds=5))
@given(invocations())
def test_every_config_exits_0_to_3(config_path, invocation):
    verb, text = invocation
    config_path.write_text(text, encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([verb[0], "--config", str(config_path), *verb[1:]])
    assert code in (0, 1, 2, 3), (code, err.getvalue())
    lines = out.getvalue().splitlines()
    if code == 0:
        assert lines[0].startswith("t,") or lines[-1].startswith("RESULT pass "), lines
    else:
        # A failure explains itself: an error line, or a report ending in RESULT fail.
        assert err.getvalue() or lines[-1].startswith("RESULT fail "), (code, lines)
