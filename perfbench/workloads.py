"""The three workloads: their set-up, job lists and exact output checks.

``setup(name, work_dir)`` builds a workload's inputs and returns its jobs in
canonical order.  A job's ``run()`` does the work a user would wait for; its
``canon(result)`` gives the bytes whose sha256 is compared with the digest
recorded from the seed code, and ``invariant(result)`` asserts a known
mathematical fact about the result.  Checks run after the job's timed region.

CLI jobs call ``quinncalc.cli.main`` in-process with stdout captured.  Inside
one CLI workload no two jobs share a (space, algebra) input, so a cache kept
across jobs cannot show a gain that a user running the CLI once never sees.
The library workload shares its inputs across jobs, as a library user does.
"""
from __future__ import annotations

import contextlib
import hashlib
import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

WORKLOADS = ("enumerate", "homotopy", "cobordism")

ALGEBRAS = ("z2", "z3", "z4", "s3", "xmod-z2-z2-zero", "xmod-z2-id", "xmod-z4-z2-zero")


@dataclass
class Job:
    id: str
    run: Callable[[], object]
    canon: Callable[[object], bytes]
    invariant: Callable[[object], bool] = lambda result: True
    inputs: tuple = ()  # (space, algebra) of a CLI job

    def digest(self, result) -> str:
        return hashlib.sha256(self.canon(result)).hexdigest()


# -- CLI workloads ----------------------------------------------------------------


class _Capture:
    """Stand-in for stdout that keeps what the CLI writes."""

    def __init__(self):
        self.parts: list = []

    def write(self, text):
        self.parts.append(text)
        return len(text)

    def flush(self):
        pass


def _cli_run(argv):
    import quinncalc.cli

    cap = _Capture()
    with contextlib.redirect_stdout(cap):
        code = quinncalc.cli.main(argv)  # looked up per call, so a tracer's wrapper is used
    return code, "".join(cap.parts)


def _cli_canon(result) -> bytes:
    code, text = result
    return f"exit {code}\n".encode() + text.encode("utf-8")


def _cli_job(files, command, space, algebra, invariant=None):
    argv = [command, "--space", files[space], "--algebra", files[algebra]]
    return Job(
        id=f"{command}:{space}:{algebra}",
        run=lambda: _cli_run(argv),
        canon=_cli_canon,
        invariant=(lambda r: r[0] == 0 and invariant(r[1])) if invariant else (lambda r: r[0] == 0),
        inputs=(space, algebra),
    )


def _write_catalog(work_dir, extra=()) -> dict:
    """Write each catalog space and corpus algebra to its own input file.

    The catalog comes from the CLI itself (``quinncalc catalog --algebras``),
    split into one file per space or algebra as a user would.  ``extra``
    holds more (name, JSON data) inputs.
    """
    import quinncalc.cli

    path = work_dir / "catalog.json"
    if quinncalc.cli.main(["catalog", "--algebras", "--out", str(path)]) != 0:
        raise RuntimeError("quinncalc catalog failed")
    catalog = json.loads(path.read_text(encoding="utf-8"))
    files = {}
    for name, data in [*catalog.pop("algebras").items(), *catalog.items(), *extra]:
        files[name] = str(work_dir / f"{name}.json")
        with open(files[name], "w", encoding="utf-8") as fh:
            json.dump(data, fh)
    return files


SPACES = ("point", "interval", "circle", "sphere2", "torus", "delta0", "delta1",
          "delta2", "delta3", "prism-point", "prism-circle", "prism-torus")


def _enumerate_jobs(work_dir):
    from quinncalc.finalg import crossed_module_identity, symmetric_group
    from quinncalc.io import crossed_module_to_json

    id_s3 = crossed_module_to_json(crossed_module_identity(symmetric_group(3)))
    files = _write_catalog(work_dir, [("xmod-s3-id", id_s3)])
    heavy = [
        _cli_job(files, "colour-count", "prism-torus", "xmod-z4-z2-zero",
                 lambda out: json.loads(out) == {"count": 16384}),
        # id:S3 colours the six edges of the 3-simplex freely: 6^6 colourings, 24 MB of JSON
        _cli_job(files, "colour-list", "delta3", "xmod-s3-id",
                 lambda out: out.count('"vertices"') == 6 ** 6),
    ]
    taken = {job.inputs for job in heavy}
    small = [
        _cli_job(files, "colour-count", space, algebra)
        for space in SPACES
        for algebra in ALGEBRAS
        if (space, algebra) not in taken
    ]
    return heavy + small


def _homotopy_jobs(work_dir):
    files = _write_catalog(work_dir)
    jobs = [
        _cli_job(files, "state-space", "torus", "xmod-z4-z2-zero",
                 lambda out: json.loads(out)["dimension"] == 32),
        _cli_job(files, "ext-groupoid", "prism-circle", "s3"),
        _cli_job(files, "state-space", "prism-circle", "xmod-z2-z2-zero"),
        _cli_job(files, "state-space", "prism-circle", "xmod-z2-id"),
        _cli_job(files, "ext-groupoid", "torus", "xmod-z2-z2-zero"),
        _cli_job(files, "ext-groupoid", "prism-circle", "z4"),
    ]
    taken = {job.inputs for job in jobs}
    jobs += [
        _cli_job(files, "state-space", space, algebra)
        for space in ("circle", "sphere2", "torus")
        for algebra in ALGEBRAS
        if (space, algebra) not in taken
    ]
    return jobs


# -- the library workload -----------------------------------------------------------


def _q(v) -> str:
    return str(v) if isinstance(v, Fraction) else repr(v)


def _matrix_json(Q) -> dict:
    return {
        "s": _q(Q.s),
        "exact": Q.exact,
        "rows": [Q.rows.representative(i).as_dict() for i in range(Q.rows.dim)],
        "cols": [Q.cols.representative(j).as_dict() for j in range(Q.cols.dim)],
        "entries": [[_q(v) for v in row] for row in Q.entries],
    }


def _canon_json(data) -> bytes:
    return json.dumps(data, sort_keys=True, default=str).encode("utf-8")


def _is_identity(entries) -> bool:
    return all(v == int(i == j) for i, row in enumerate(entries) for j, v in enumerate(row))


def _matrix_job(space_name, M, alg_name, A):
    from quinncalc import tqft

    half = alg_name in ("z2", "z3", "z4")  # equal class contents: s = 1/2 stays exact

    def run():
        Q0 = tqft.quinn_matrix(M, A, Fraction(0))
        Q1 = tqft.quinn_matrix(M, A, Fraction(1))
        out = {"Q0": Q0, "Q1": Q1,
               "checks": [tqft.s_conjugation_check(Q0, Q1), tqft.s_conjugation_check(Q1, Q0)]}
        if half:
            Qh = tqft.quinn_matrix(M, A, Fraction(1, 2))
            out["Qh"] = Qh
            out["checks"] += [Qh.exact, tqft.s_conjugation_check(Qh, Q0),
                              tqft.s_conjugation_check(Q1, Qh)]
        return out

    def canon(r):
        return _canon_json({k: (_matrix_json(v) if k != "checks" else v) for k, v in r.items()})

    return Job(f"matrix:{space_name}:{alg_name}", run, canon,
               lambda r: all(r["checks"]) and _is_identity(r["Q0"].entries))


def _profunctor_job(single, double, alg_name, A):
    from quinncalc import extprof, morita
    from quinncalc.io import profunctor_to_json

    def run():
        Ps = extprof.cobordism_profunctor(single, A)
        Pd = extprof.cobordism_profunctor(double, A)
        iso = extprof.profunctor_iso_check(Ps, Pd)
        C = extprof.compose_profunctors(Ps, Ps)
        T, classes = morita.tensor_over(morita.lin2_bimodule(Ps), morita.lin2_bimodule(Ps))
        L = morita.lin2_bimodule(C)
        return {"Ps": Ps, "Pd": Pd, "iso": iso, "C": C, "T": T, "classes": classes, "L": L}

    def canon(r):
        parts: dict = {}
        for pair, label in r["classes"].items():
            parts.setdefault(repr(label), []).append(repr(pair))
        return _canon_json({
            "Ps": profunctor_to_json(r["Ps"]),
            "Pd": profunctor_to_json(r["Pd"]),
            "C": profunctor_to_json(r["C"]),
            "T": r["T"].dim,
            "L": r["L"].dim,
            "tensor_classes": sorted(sorted(members) for members in parts.values()),
        })

    def invariant(r):
        iso = r["iso"]
        return (iso is not None and len(set(iso.values())) == len(iso)
                and r["T"].dim == r["L"].dim)

    return Job(f"profunctor:{alg_name}", run, canon, invariant)


def _window_job(space_name, W, alg_name, A):
    from quinncalc import extprof

    def run():
        nt = extprof.window_nat_transform(W, A)
        return {"nt": nt, "identity": nt.is_identity(), "natural": nt.naturality_check()}

    def canon(r):
        blocks = {repr(pair): [[_q(v) for v in row] for row in m]
                  for pair, m in sorted(r["nt"].blocks.items())}
        return _canon_json({"blocks": blocks, "identity": r["identity"], "natural": r["natural"]})

    return Job(f"window:{space_name}:{alg_name}", run, canon,
               lambda r: r["identity"] and r["natural"])


def _cobordism_jobs(work_dir):
    from quinncalc import finalg, morita, simpset

    groups = {"z2": finalg.cyclic_group(2), "z3": finalg.cyclic_group(3),
              "z4": finalg.cyclic_group(4), "s3": finalg.symmetric_group(3)}
    modules = {
        "xmod-z2-z2-zero": finalg.crossed_module_zero(finalg.cyclic_group(2),
                                                      finalg.cyclic_group(2)),
        "xmod-z2-id": finalg.crossed_module_identity(finalg.cyclic_group(2)),
        "xmod-z4-z2-zero": finalg.crossed_module_zero(finalg.cyclic_group(4),
                                                      finalg.cyclic_group(2)),
    }
    algebras = {name: finalg.iota1(G) for name, G in groups.items()}
    algebras.update({name: finalg.iota2(M) for name, M in modules.items()})
    for name, A in algebras.items():
        if not finalg.validate_crossed_complex(A):
            raise RuntimeError(f"corpus algebra {name} does not validate")

    single, other = simpset.prism(simpset.circle()), simpset.prism(simpset.circle())
    double = simpset.glue(single, other, simpset.prism_end_matching(single, other))
    windows = {
        "point": simpset.window_support(simpset.prism(simpset.point()),
                                        simpset.prism(simpset.point())),
        "circle": simpset.window_support(simpset.prism(simpset.circle()),
                                         simpset.prism(simpset.circle())),
    }
    s3, s4 = groups["s3"], finalg.symmetric_group(4)
    conj = {(g, x): s3.conj(x, s3.inv(g)) for g in s3.elements for x in s3.elements}
    conj_groupoid = finalg.action_groupoid(s3, s3.elements, conj)

    jobs = []
    for name, A in algebras.items():
        jobs.append(_matrix_job("single", single, name, A))
        jobs.append(_matrix_job("double", double, name, A))
        jobs.append(_profunctor_job(single, double, name, A))
        for space_name, W in windows.items():
            jobs.append(_window_job(space_name, W, name, A))
    for name, G in (("s3", s3), ("s4", s4)):
        jobs.append(Job(
            f"double:{name}",
            lambda G=G: morita.quantum_double_oracle(G),
            lambda r: _canon_json({"dim": r.double.dim, "crs_dim": r.crs_algebra.dim,
                                   "ok": r.ok}),
            lambda r, n=len(G): r.ok and r.double.dim == n * n,
        ))
    jobs.append(Job(
        "frobenius:s3-conjugation",
        lambda: morita.verify_frobenius(morita.frobenius_data(conj_groupoid)),
        lambda r: _canon_json({"verified": r}),
        lambda r: r is True,
    ))
    return jobs


_BUILDERS = {
    "enumerate": _enumerate_jobs,
    "homotopy": _homotopy_jobs,
    "cobordism": _cobordism_jobs,
}


def setup(name: str, work_dir) -> list:
    """Build the inputs of a workload and return its jobs in canonical order."""
    return _BUILDERS[name](work_dir)
