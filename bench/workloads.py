"""The benchmark's workloads: which inputs each one generates and which
`kuelsh` jobs it runs on them, one process per job, in order.

An input is named `<base>_<field>` or `T_<base>_<field>` (see `inputs.py`);
`dense` marks the fixed dense basis change of `hh_dense`.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Job:
    command: str  # kuelsh subcommand
    input: str
    args: tuple = ()
    dense: bool = False

    @property
    def spec(self):
        return (self.input, self.dense)

    @property
    def key(self):
        """Reference key: the invariants depend on everything but the basis."""
        return " ".join((self.command, self.input, *self.args))


@dataclass(frozen=True)
class Workload:
    name: str
    jobs: tuple
    disk_cache: bool = False  # fresh KUELSH_CACHE_DIR per pass

    @property
    def specs(self):
        return list(dict.fromkeys(job.spec for job in self.jobs))


def _hh(name, degree, dense=False):
    return Job("hh", name, ("--max-degree", str(degree)), dense)


def _sweep(name, degree):
    """max degree K-1, then K: the second job reads what the first cached."""
    return (_hh(name, degree - 1), _hh(name, degree))


def _kappa(name, m, hat=True):
    args = ("--m", str(m), "--n", "1") + (("--hat",) if hat else ())
    return Job("kappa", name, args)


def _degree0(name, n):
    return Job("degree0", name, ("--n", str(n)))


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "hh_monomial",
            _sweep("T_dual_f2", 4)
            + _sweep("T_dual_f3", 5)
            + _sweep("T_dual_f4", 3)
            + _sweep("m2_f3", 4)
            + _sweep("ut3_f2", 3)
            + _sweep("trunc5_f5", 3),
            disk_cache=True,
        ),
        Workload(
            "hh_dense",
            (
                _hh("T_dual_f3", 4, dense=True),
                _hh("m2_f3", 4, dense=True),
                _hh("T_dual_f5", 4, dense=True),
                _hh("trunc5_f5", 2, dense=True),
                _hh("trunc3_f5", 6, dense=True),
                _hh("ut2_f5", 6, dense=True),
            ),
        ),
        Workload(
            "kappa_degree0",
            (
                _kappa("dual_f2", 2),
                _kappa("dual_f3", 2),
                _kappa("dual_f4", 2),
                _kappa("dual_f5", 1),
                _kappa("dual_f9", 1),
                _kappa("trunc3_f3", 1),
                _kappa("trunc3_f9", 1),
                _kappa("ut2_f3", 1),
                _kappa("m2_f3", 1, hat=False),
                # the degree-0 theory, on the r > 1 fields and a trivial extension
                _degree0("ut3_f2", 3),
                _degree0("m2_f3", 2),
                _degree0("trunc3_f4", 3),
                _degree0("dual_f8", 3),
                _degree0("T_dual_f9", 2),
            ),
        ),
    )
}
