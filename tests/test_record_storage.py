"""How the record types store their fields: the hot ones (LatticeSignature,
DivClass, MarkingGroup, QComponent, SurfaceData) keep them in slots, with no
instance dict however they are built, and stay frozen; pickling and copying
rebuild a frozen record through its constructor, so a cached hash is
recomputed in the interpreter that loads it."""

import copy
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from ncsurf import marking
from ncsurf.lattice import DivClass, LatticeSignature, _new
from ncsurf.marking import MarkingGroup, QComponent, SurfaceData, _surface
from ncsurf.presets import get_preset


def built_every_way():
    """(how, record) for each slotted type, from its constructor, and for
    DivClass and SurfaceData also from lattice._new and marking._surface."""
    S = get_preset("m2_generic")
    D = DivClass((1, 0, -1, 0), S.sig)
    T = SurfaceData(S.sig, S.components, S.marking, S.q, S.lam)
    return [
        ("LatticeSignature", LatticeSignature(2, "even")),
        ("DivClass", D),
        ("_new", _new(D.coeffs, S.sig)),
        ("DivClass arithmetic", D + D),
        ("MarkingGroup", MarkingGroup(1, (3,))),
        ("QComponent", QComponent(D, 2)),
        ("SurfaceData", T),
        ("_surface", _surface(S.sig, S.components, S.marking, S.q, S.lam)),
        ("preset", S),
    ]


@pytest.mark.parametrize("how, record", built_every_way(), ids=[how for how, _ in built_every_way()])
def test_slotted_records_have_no_instance_dict_and_stay_frozen(how, record):
    assert not hasattr(record, "__dict__"), how
    field = record._fields[0]
    value = getattr(record, field)
    with pytest.raises(AttributeError, match="cannot assign to field '%s'" % field):
        setattr(record, field, value)
    with pytest.raises(AttributeError, match="cannot assign to field '_hash'"):
        record._hash = 0
    assert getattr(record, field) is value


def test_surface_built_without_the_constructor_equals_it():
    S = get_preset("m2_generic")
    T = _surface(S.sig, S.components, S.marking, S.q, S.lam)
    assert T == S and hash(T) == hash(S) and T._cols == S._cols
    assert marking._surface_table(T) is marking._surface_table(S)


@pytest.mark.parametrize("how, record", built_every_way(), ids=[how for how, _ in built_every_way()])
def test_copies_and_pickles_are_equal(how, record):
    for twin in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(twin) is type(record) and twin == record and hash(twin) == hash(record), how
        assert not hasattr(twin, "__dict__"), how


def _python(code, seed, stdin=None):
    """Run code in a fresh interpreter on this checkout's src/ with the str
    hash seed seed; returns its stdout as bytes."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONHASHSEED=str(seed),
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", code], input=stdin, env=env, capture_output=True, check=True).stdout


def test_pickles_rehash_under_another_hash_seed():
    # a signature's hash salts its parity string, so a hash cached by the
    # pickling interpreter is wrong in one with another seed
    dumped = _python(
        "import pickle, sys\n"
        "from ncsurf.lattice import div\n"
        "from ncsurf.presets import get_preset\n"
        "S = get_preset('m2_generic')\n"
        "sys.stdout.buffer.write(pickle.dumps((S, S.sig, div(S.sig, 1, 1, -1, 0))))\n",
        seed=1,
    )
    checks = _python(
        "import pickle, sys\n"
        "from ncsurf import marking\n"
        "from ncsurf.lattice import div\n"
        "from ncsurf.presets import get_preset\n"
        "S, sig, D = pickle.loads(sys.stdin.buffer.read())\n"
        "T = get_preset('m2_generic')\n"
        "E = div(T.sig, 1, 1, -1, 0)\n"
        "print(S == T, hash(S) == hash(T), hash(sig) == hash(T.sig), hash(D) == hash(E))\n"
        "print(sig in {T.sig}, S.sig in {T.sig}, S in {T}, D in {E})\n"
        "print(marking._surface_table(S) is marking._surface_table(T))\n",
        seed=2,
        stdin=dumped,
    )
    assert checks.decode().split() == ["True"] * 9
