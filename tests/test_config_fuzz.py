"""Generated configuration documents: each is either rejected with a
`ConfigError` or runs to finite, strict-JSON outputs.

A document is drawn with values in the ranges each key is meant to take
(some combinations of which the models still reject), and with each section
only where `config.READS` says the experiment reads it. Half of them then get
one fault: a bad value (zero, a negative, a non-finite number, a boolean, a
string, null, a list) in place of any value, an unknown key, an `output`
section, or a section where the experiment does not read it.
Grid, shot and resample sizes are bounded, and always given where the
defaults are large, so that a valid document runs in milliseconds.
Some `phase_reversal` documents compare their fit with the twelve-row trace
TRACE_CSV, written once per session. Few of those documents run `pirs_cz`,
so a second generator draws only valid `pirs_cz` documents, in both modes
and with drifts up to the ceiling.
"""

import json
import math
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from conftest import TRACE_CSV
from donorpair.config import EXPERIMENTS, READS, ConfigError, validate_config
from donorpair.experiments import run
from donorpair.pulses import GATE_MODEL, MAX_SHIFT_KHZ, MODES

# the `data_csv` a drawn document names, which the test replaces with the
# path of the session's trace file
TRACE = "<trace.csv>"
BAD = st.sampled_from([0, -1.0, float("nan"), float("inf"), True, "1", None, [1.0]])


def number(lo, hi):
    """A float in [lo, hi], or an integer there if there is one."""
    ints = st.integers(math.ceil(lo), math.floor(hi)) if math.ceil(lo) <= hi else st.nothing()
    return st.one_of(st.floats(lo, hi), ints)


def obj(required=None, optional=None):
    return st.fixed_dictionaries(required or {}, optional=optional or {})


def grid(lo, hi, count_lo, count_hi):
    return obj({"count": st.integers(count_lo, count_hi)}, {"start": number(lo, hi), "stop": number(lo, hi)})


SYSTEM = {
    "b0": number(0.2, 3.0),
    "g1": number(1.99, 2.01),
    "g2": number(1.99, 2.01),
    "a1": number(50.0, 150.0),
    "a2": number(50.0, 150.0),
    "j": number(0.0, 30.0),
}
SECTIONS = {
    "mode": st.sampled_from(MODES),
    "system": obj(optional=SYSTEM),
    "noise": obj(optional={"p_up": number(0.0, 0.5), "sigma_f_mhz": st.just(0) | number(0.0, 0.2)}),
    # a disabled drift reads nothing else
    "pirs": obj({"enabled": st.just(False)})
    | obj(
        optional={
            "enabled": st.just(True),
            "shift_khz": number(0.0, 5000.0),
            "time_constant_us": number(0.1, 10.0),
        }
    ),
}
SPAM_SPINS = st.sampled_from(["all", "electrons"])
OPTIONS = {
    "phase_map": obj(
        {"freq_offset": grid(-20.0, 20.0, 1, 4), "duration": grid(0.0, 20.0, 1, 4)},
        {"center_mhz": st.just("auto") | number(-100.0, 100.0), "observables": st.booleans()},
    ),
    "full_phase_sim": obj(
        {"freq_offset": grid(-20.0, 20.0, 1, 3), "duration": grid(0.0, 20.0, 1, 3)},
        {"center_mhz": st.just("auto") | number(-100.0, 100.0)},
    ),
    # exact tables (no shots) run no bootstrap, so read no groups or resamples
    "bell_tomography": obj(optional={"shots_per_axis": st.just(0), "spam_spins": SPAM_SPINS})
    | obj(
        {"shots_per_axis": st.integers(1, 50), "resamples": st.integers(1, 20)},
        {"groups": st.integers(2, 4), "spam_spins": SPAM_SPINS},
    ),
    "pirs_cz": obj({"max_turns": st.integers(1, 2), "points_per_turn": st.integers(2, 4)}),
    "rabi_spam": obj(
        {"duration": grid(0.0, 200.0, 6, 12)},
        {
            "rabi_mhz": number(0.001, 0.1),
            "detuning_when_up_mhz": number(-200.0, 200.0),
            "shots_per_point": st.integers(0, 100),
        },
    ),
    "phase_reversal": obj({"points": st.integers(12, 16)}, {"data_csv": st.just(TRACE)}),
    "ramsey": st.one_of(
        obj({"wait": grid(0.0, 60.0, 1, 4), "n_shots": st.integers(1, 50), width: number(0.0, hi)})
        for width, hi in [("sigma_f_mhz", 1.0), ("t2_star_us", 100.0)]
    ),
    "donor_distance_fit": obj(
        {"points": st.lists(st.lists(number(1.0, 30.0), min_size=2, max_size=2), min_size=3, max_size=5)},
        {"target_j_mhz": number(0.0, 100.0)},
    ),
}


@st.composite
def intended_documents(draw):
    """Every value in the range its key is meant to take; the seed and each
    section the experiment reads present half of the time."""
    experiment = draw(st.sampled_from(EXPERIMENTS))
    doc = {"experiment": experiment, "options": draw(OPTIONS[experiment])}
    if draw(st.booleans()):
        doc["seed"] = draw(st.integers(0, 2**32))
    if "mode" in READS[experiment].sections and draw(st.booleans()):
        doc["mode"] = draw(SECTIONS["mode"])
    for key in READS[experiment].sections_in(doc.get("mode", GATE_MODEL)):
        if key != "mode" and draw(st.booleans()):
            doc[key] = draw(SECTIONS[key])
    return doc


def _slots(node):
    """(container, key) of every value under a document node."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, val in items:
        yield node, key
        if isinstance(val, (dict, list)):
            yield from _slots(val)


@st.composite
def faulty_documents(draw):
    doc = draw(intended_documents())
    read = READS[doc["experiment"]].sections_in(doc.get("mode", GATE_MODEL))
    unread = [k for k in SECTIONS if k not in read]
    fault = draw(st.sampled_from(["value", "unknown key", "output"] + ["section where unread"] * bool(unread)))
    if fault == "value":
        container, key = draw(st.sampled_from(list(_slots(doc))))
        container[key] = draw(BAD)
    elif fault == "unknown key":
        dicts = [doc] + [c[k] for c, k in _slots(doc) if isinstance(c[k], dict)]
        container = draw(st.sampled_from(dicts))
        container["bogus"] = 1
    elif fault == "output":
        doc["output"] = {"format": "csv"}
    else:
        key = draw(st.sampled_from(unread))
        doc[key] = draw(SECTIONS[key])
    return doc


def _raise_on_constant(name):
    raise ValueError(f"non-JSON constant {name}")


def check_outputs(out: Path, names):
    for name in names:
        text = (out / name).read_text()
        if name.endswith(".json"):
            json.loads(text, parse_constant=_raise_on_constant)
            continue
        for line in text.splitlines()[1:]:
            cells = [float(cell) for cell in line.split(",")]
            assert all(math.isfinite(c) for c in cells), f"{name}: {line}"


@pytest.fixture(scope="session")
def trace_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "trace.csv"
    path.write_text(TRACE_CSV)
    return str(path)


@settings(
    max_examples=300,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(doc=intended_documents() | faulty_documents())
def test_document_is_rejected_or_runs_clean(trace_csv, doc):
    for container, key in _slots(doc):
        if container[key] == TRACE:
            container[key] = trace_csv
    try:
        config = validate_config(doc)
    except ConfigError as err:
        assert err.errors and all(path.startswith("$") for path, _ in err.errors)
        return
    with tempfile.TemporaryDirectory() as out, warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # full dynamics' selectivity warning
        warnings.simplefilter("error", RuntimeWarning)
        manifest = run(config, out)
        check_outputs(Path(out), [*manifest.outputs, "manifest.json"])


# pirs_cz documents that every model accepts: g-factors within 1% of each
# other and no sigma_f (no pirs_cz step reads it). The drift is off, the
# default, any amplitude up to the ceiling, or the ceiling itself.
PIRS_CZ_DOCUMENTS = obj(
    {
        "experiment": st.just("pirs_cz"),
        "options": OPTIONS["pirs_cz"],
        "system": obj(optional={**SYSTEM, "g2": number(1.995, 2.005)}),
        "noise": obj(optional={"p_up": number(0.0, 0.5)}),
        "pirs": st.one_of(
            st.just({"enabled": False}),
            st.just({}),
            obj({"shift_khz": number(0.0, MAX_SHIFT_KHZ), "time_constant_us": number(0.1, 10.0)}),
            obj({"shift_khz": st.just(MAX_SHIFT_KHZ), "time_constant_us": number(0.1, 10.0)}),
        ),
    },
    {"seed": st.integers(0, 2**32)},
)


@settings(
    max_examples=24,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@pytest.mark.parametrize("mode", MODES)
@given(doc=PIRS_CZ_DOCUMENTS)
def test_pirs_cz_document_runs_to_flip_probabilities(mode, doc):
    doc = {**doc, "mode": mode}
    config = validate_config(doc)
    with tempfile.TemporaryDirectory() as out, warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # full dynamics' selectivity warning
        warnings.simplefilter("error", RuntimeWarning)
        run(config, out)
        lines = (Path(out) / "pirs_cz.csv").read_text().splitlines()
    assert lines[0] == "duration_us,p_flip_ideal,p_flip_drift"
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == doc["options"]["max_turns"] * doc["options"]["points_per_turn"] + 1
    for _, ideal, drift in rows:
        assert all(math.isfinite(float(p)) and 0.0 <= float(p) <= 1.0 for p in (ideal, drift))
    if not doc.get("pirs", {}).get("enabled", True):
        assert [drift for _, _, drift in rows] == [ideal for _, ideal, _ in rows]
