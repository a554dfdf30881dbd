"""The record types are immutable named tuples that validate and normalize
their fields in ``__new__``: construction, defaults, messages, repr and
equality are those of the frozen dataclasses they replaced."""

import numpy as np
import pytest

from pseudobath.config import RunConfig
from pseudobath.dynamics import Trajectory
from pseudobath.model import BathModel, InitialState, LorentzPeak, ModelError, SystemHamiltonian
from pseudobath.volterra import OracleTrajectory

H = SystemHamiltonian(np.array([[0.5]]))
PEAK = LorentzPeak(0.5, 1.0)
BATH = BathModel((PEAK,), 0.25)
INIT = InitialState(np.array([0.6]), 0.8)
TIMES = np.array([0.0, 1.0])
STATES = np.ones((2, 1), dtype=complex)

_H_REPR = "SystemHamiltonian(matrix=array([[0.5+0.j]]))"
_PEAK_REPR = "LorentzPeak(g=0.5, gamma=1.0, epsilon=0.0)"
_BATH_REPR = f"BathModel(peaks=({_PEAK_REPR},), eta=0.25, cutoff=None)"
_INIT_REPR = "InitialState(psi=array([0.6+0.j]), psi0=(0.8+0j))"
_STATES_REPR = "array([[1.+0.j],\n       [1.+0.j]])"

# (type, field names, values of the required fields, the other fields'
# defaults, repr of the instance built from the required fields)
RECORDS = [
    (SystemHamiltonian, ("matrix",), (H.matrix,), (), _H_REPR),
    (LorentzPeak, ("g", "gamma", "epsilon"), (0.5, 1.0), (0.0,), _PEAK_REPR),
    (BathModel, ("peaks", "eta", "cutoff"), (), ((), 0.0, None),
     "BathModel(peaks=(), eta=0.0, cutoff=None)"),
    (InitialState, ("psi", "psi0"), (np.array([1.0 + 0j]),), (0j,),
     "InitialState(psi=array([1.+0.j]), psi0=0j)"),
    (RunConfig, ("system", "bath", "initial", "t_max", "output_points", "oracle_steps", "sweep"),
     (H, BATH, INIT, 5.0, 51), (4000, {}),
     f"RunConfig(system={_H_REPR}, bath={_BATH_REPR}, initial={_INIT_REPR}, t_max=5.0, "
     "output_points=51, oracle_steps=4000, sweep={})"),
    (Trajectory, ("times", "n", "k", "vectors"), (TIMES, 1, 0, STATES), (),
     f"Trajectory(times=array([0., 1.]), n=1, k=0, vectors={_STATES_REPR})"),
    (OracleTrajectory, ("times", "states", "error_estimate"), (TIMES, STATES), (None,),
     f"OracleTrajectory(times=array([0., 1.]), states={_STATES_REPR}, error_estimate=None)"),
]
IDS = [spec[0].__name__ for spec in RECORDS]


def assert_fields(record, values):
    assert len(record) == len(values)
    for got, want in zip(record, values):
        if isinstance(want, np.ndarray):
            np.testing.assert_array_equal(got, want)
        else:
            assert got == want


@pytest.mark.parametrize("cls, fields, required, defaults, text", RECORDS, ids=IDS)
class TestRecord:
    def test_construction(self, cls, fields, required, defaults, text):
        assert cls._fields == fields
        values = required + defaults
        by_position = cls(*values)
        assert_fields(by_position, values)
        assert_fields(cls(**dict(zip(fields, values))), values)
        # the defaults fill the optional fields; attributes and unpacking agree
        with_defaults = cls(*required)
        assert_fields(with_defaults, values)
        assert_fields([getattr(with_defaults, name) for name in fields], values)

    def test_immutable(self, cls, fields, required, defaults, text):
        record = cls(*required)
        for name in fields:
            with pytest.raises(AttributeError):
                setattr(record, name, None)
        with pytest.raises(AttributeError):
            record.extra = 1

    def test_repr(self, cls, fields, required, defaults, text):
        assert repr(cls(*required)) == text

    def test_equal_fields_compare_equal(self, cls, fields, required, defaults, text):
        assert cls(*required) == cls(*required)
        assert not cls(*required) != cls(*required)


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: SystemHamiltonian(np.array([[0.0, 1.0], [0.0, 0.0]])), ModelError,
         "system Hamiltonian is not Hermitian (relative defect 5.000e-01)"),
        (lambda: SystemHamiltonian(np.zeros((0, 0))), ModelError,
         "system must have at least one level"),
        (lambda: LorentzPeak(0.0, 1.0), ModelError, "peak coupling must be positive, got g=0.0"),
        (lambda: LorentzPeak(1.0, -1.0), ModelError,
         "peak width must be positive, got gamma=-1.0"),
        (lambda: LorentzPeak(1e160, 1.0), ModelError,
         "g^2/gamma overflows for g=1e+160, gamma=1.0"),
        (lambda: BathModel(eta=-1.0), ModelError,
         "Ohmic coefficient must be non-negative, got -1.0"),
        (lambda: BathModel(cutoff=0.0), ModelError, "cutoff must be positive and finite, got 0.0"),
        (lambda: BathModel(cutoff=np.inf), ModelError,
         "cutoff must be positive and finite, got inf"),
        (lambda: InitialState(np.array([])), ModelError,
         "initial excited vector must have dim >= 1"),
        (lambda: InitialState(np.array([np.nan])), ModelError,
         "initial state contains non-finite entries"),
        (lambda: InitialState(np.array([0.5])), ModelError,
         "initial state is not normalized: ||psi||^2 + |psi0|^2 = 0.25"),
        (lambda: Trajectory(TIMES, 1, 1, STATES), ValueError,
         "state array shape (2, 1) != (2, 2)"),
    ],
    ids=["not-hermitian", "no-levels", "g", "gamma", "g2-over-gamma", "eta", "cutoff",
         "cutoff-inf", "empty-psi", "non-finite-psi", "not-normalized", "trajectory-shape"],
)
def test_validation_messages(build, error, message):
    with pytest.raises(error) as info:
        build()
    assert str(info.value) == message


def test_normalized_fields():
    h = SystemHamiltonian([[1, 0], [0, 2]])
    assert h.matrix.dtype == complex and not h.matrix.flags.writeable
    assert BathModel([PEAK]).peaks == (PEAK,)
    init = InitialState([[1]], 0)
    assert init.psi.shape == (1,) and init.psi0 == 0j and isinstance(init.psi0, complex)


def test_run_configs_do_not_share_a_sweep():
    a, b = RunConfig(H, BATH, INIT, 5.0, 51), RunConfig(H, BATH, INIT, 5.0, 51)
    assert a.sweep == b.sweep == {}
    assert a.sweep is not b.sweep
    assert a.oracle_steps == 4000


@pytest.mark.parametrize(
    "record, change, error",
    [
        (H, {"matrix": np.array([[0.0, 1.0], [0.0, 0.0]])}, ModelError),
        (PEAK, {"g": 0.0}, ModelError),
        (BATH, {"eta": -1.0}, ModelError),
        (BATH, {"cutoff": np.inf}, ModelError),
        (INIT, {"psi0": 1.0}, ModelError),
        (Trajectory(TIMES, 1, 0, STATES), {"k": 1}, ValueError),
    ],
    ids=["SystemHamiltonian", "LorentzPeak", "BathModel", "BathModel-cutoff-inf", "InitialState",
         "Trajectory"],
)
def test_replace_and_make_validate(record, change, error):
    # namedtuple's own _make, which _replace calls, skips __new__
    with pytest.raises(error):
        record._replace(**change)
    with pytest.raises(error):
        type(record)._make({**record._asdict(), **change}.values())
    assert type(record)._make(record) == record
