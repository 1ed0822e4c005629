"""Every reader of a file the tool writes either loads a mutated copy of
that file or raises DataError naming the file: never another exception,
which the CLI would report as a traceback."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import tiny_config

from tcnbind.attribution import (AttributionMap, pwm_from_consensus,
                                 read_attribution_maps, read_pwms,
                                 write_attribution_maps, write_pwms)
from tcnbind.data import (DataError, SyntheticSpec, generate_synthetic,
                          load_dataset, save_dataset)
from tcnbind.model import TcnModel
from tcnbind.training import ModelCheckpoint, load_checkpoint, save_checkpoint

READERS = {"dataset": load_dataset, "checkpoint": load_checkpoint,
           "maps": read_attribution_maps, "pwms": read_pwms}

# what a swap may put in place of one byte: the characters a number, a
# key=value line or a field separator is made of
SWAPS = b"0123456789-.eE\t =\nnaif"


@pytest.fixture(scope="module")
def written(tmp_path_factory):
    """A folder, and the bytes of one file of each kind in it by reader."""
    folder = tmp_path_factory.mktemp("written")
    ds = generate_synthetic(SyntheticSpec(4, 12, {"TF0": "CACGTG",
                                                  "TF1": "TGACTCA"}),
                            np.random.default_rng(0))
    save_dataset(ds, folder / "dataset", header_lines=["provenance"])
    config = tiny_config(input_length=12, num_labels=2)
    model = TcnModel.initialize(config, np.random.default_rng(1))
    save_checkpoint(ModelCheckpoint(config, ["TF0", "TF1"],
                                    model.parameter_arrays(), {"epoch": "0"}),
                    folder / "checkpoint")
    rng = np.random.default_rng(2)
    write_attribution_maps(
        [AttributionMap("TF0", rng.normal(size=(3, 4)), 0.01, sample_id="a#0"),
         AttributionMap("TF1", rng.normal(size=(3, 4)), -2e-7,
                        sample_id="a#1")],
        folder / "maps", header_lines=["provenance"])
    write_pwms([pwm_from_consensus("CACGTG"), pwm_from_consensus("TTGACA")],
               folder / "pwms", header_lines=["provenance"])
    return folder, {name: (folder / name).read_bytes() for name in READERS}


# (kind, at, value): at picks a byte or a line modulo the file's length
mutations = st.one_of(
    st.tuples(st.just("flip"), st.integers(0, 2 ** 20), st.integers(1, 255)),
    st.tuples(st.just("truncate"), st.integers(0, 2 ** 20), st.just(0)),
    st.tuples(st.just("repeat_line"), st.integers(0, 2 ** 20), st.just(0)),
    st.tuples(st.just("swap"), st.integers(0, 2 ** 20),
              st.sampled_from(SWAPS)))


def mutate(blob: bytes, kind: str, at: int, value: int) -> bytes:
    if not blob:
        return blob
    i = at % len(blob)
    if kind == "flip":
        return blob[:i] + bytes([blob[i] ^ value]) + blob[i + 1:]
    if kind == "truncate":
        return blob[:i]
    if kind == "swap":
        return blob[:i] + bytes([value]) + blob[i + 1:]
    lines = blob.splitlines(keepends=True)
    i = at % len(lines)
    return b"".join(lines[:i + 1] + lines[i:])


@settings(max_examples=400, deadline=None)
@given(reader=st.sampled_from(sorted(READERS)),
       edits=st.lists(mutations, min_size=1, max_size=3))
def test_a_mutated_file_loads_or_is_a_data_error(written, reader, edits):
    folder, originals = written
    blob = originals[reader]
    for edit in edits:
        blob = mutate(blob, *edit)
    path = folder / "mutated"
    path.write_bytes(blob)
    try:
        READERS[reader](path)
    except DataError as exc:
        assert str(path) in str(exc)
