"""pgFMU core: in-DBMS storage, simulation and calibration of FMU models.

This subpackage is the reproduction of the paper's contribution.  It layers
on top of the SQL engine (:mod:`repro.sqldb`), the FMI runtime
(:mod:`repro.fmi`), the Modelica compiler (:mod:`repro.modelica`) and the
estimation stack (:mod:`repro.estimation`):

* :mod:`repro.core.catalog` - the model catalogue of Figure 4 (``Model``,
  ``ModelVariable``, ``ModelInstance``, ``ModelInstanceValues``) plus FMU
  storage.
* :mod:`repro.core.instances` - instance management: ``fmu_create``,
  ``fmu_copy``, ``fmu_variables``, ``fmu_get``, ``fmu_set_*``, ``fmu_reset``,
  ``fmu_delete_instance``, ``fmu_delete_model``.
* :mod:`repro.core.parest` - parameter estimation (Algorithms 2 and 3),
  including the multi-instance (MI) optimization.
* :mod:`repro.core.simulate` - model simulation (Algorithm 4), including the
  shared-input-pass batch path behind ``simulate_many``.
* :mod:`repro.core.session` - :class:`Session`, the owner of the database,
  catalogue and managers, and the entry point of the object layer.
* :mod:`repro.core.handles` - :class:`ModelHandle` / :class:`InstanceHandle`,
  the fluent object layer returned by ``session.create(...)``.
* :mod:`repro.core.udfs` - the ``pgfmu`` extension: every ``fmu_*`` function
  declared with the UDF decorators and installed via
  ``database.install_extension``.

Typical use::

    import repro

    conn = repro.connect()
    cur = conn.cursor()
    cur.execute("CREATE TABLE measurements (...)")
    inst = conn.session.create("/tmp/hp1.fmu", "HP1Instance1")
    inst.calibrate(measurements="SELECT * FROM measurements", parameters=["Cp", "R"])
    cur.execute("SELECT * FROM fmu_simulate('HP1Instance1', 'SELECT * FROM measurements')")
"""

from repro.core.catalog import ModelCatalog
from repro.core.handles import InstanceHandle, ModelHandle
from repro.core.session import Session
from repro.core.udfs import pgfmu_extension

__all__ = [
    "ModelCatalog",
    "Session",
    "InstanceHandle",
    "ModelHandle",
    "pgfmu_extension",
]
